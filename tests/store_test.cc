// Persistent artifact store: serialization round-trip fuzz (bit
// equality), truncated/corrupted-input rejection, DiskArtifactStore
// lifecycle (reopen, index recovery, eviction, compaction, hash-version
// invalidation, concurrency), the write-behind queue, the OperatorCache
// disk tier, and the cross-process stability contract of StructuralHash
// (golden values pinned under kHashVersion).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/combinators.h"
#include "matrix/implicit_ops.h"
#include "matrix/linop.h"
#include "matrix/range_ops.h"
#include "matrix/rewrite.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"
#include "store/serialize.h"
#include "store/write_behind.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ektelo {
namespace {

namespace fs = std::filesystem;
using store::ArtifactKey;
using store::ByteReader;
using store::ByteWriter;
using store::DiskArtifactStore;
using store::DiskStoreOptions;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ektelo_store_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

CsrMatrix RandomCsr(std::size_t m, std::size_t n, Rng* rng,
                    double density = 0.3) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng->Uniform() < density) t.push_back({i, j, rng->Normal()});
  return CsrMatrix::FromTriplets(m, n, std::move(t));
}

template <typename AllocA, typename AllocB>
bool BitEqual(const std::vector<double, AllocA>& a,
              const std::vector<double, AllocB>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ------------------------------------------------------------- serializers

TEST(SerializeTest, PrimitiveFramingIsLittleEndianAndBitExact) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x1122334455667788ull);
  w.F64(-0.0);
  // Explicit little-endian layout: least-significant byte first.
  const std::vector<uint8_t>& b = w.bytes();
  ASSERT_EQ(b.size(), 1u + 4u + 8u + 8u);
  EXPECT_EQ(b[0], 0xAB);
  EXPECT_EQ(b[1], 0x04);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x02);
  EXPECT_EQ(b[4], 0x01);
  EXPECT_EQ(b[5], 0x88);
  EXPECT_EQ(b[12], 0x11);

  ByteReader r(b);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.F64(&d));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(d, 0.0);
  EXPECT_EQ(r.remaining(), 0u);
  // Reads past the end fail and poison the reader.
  EXPECT_FALSE(r.U8(&u8));
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, SpecialDoublesRoundTripBitwise) {
  const double specials[] = {0.0, -0.0, 1.0, -1.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (double v : specials) {
    ByteWriter w;
    store::SerializeScalar(v, &w);
    ByteReader r(w.bytes());
    double out;
    ASSERT_TRUE(store::DeserializeScalar(&r, &out));
    EXPECT_TRUE(BitwiseEq(v, out));
  }
}

TEST(SerializeTest, FuzzRoundTripIsBitExact) {
  Rng rng(2026);
  for (int it = 0; it < 120; ++it) {
    const std::size_t m = 1 + std::size_t(rng.UniformInt(0, 12));
    const std::size_t n = 1 + std::size_t(rng.UniformInt(0, 12));
    // Vec
    Vec v(std::size_t(rng.UniformInt(0, 40)));
    for (auto& x : v) x = rng.Normal() * std::pow(10.0, rng.UniformInt(-4, 4));
    ByteWriter wv;
    store::SerializeVec(v, &wv);
    ByteReader rv(wv.bytes());
    Vec v2;
    ASSERT_TRUE(store::DeserializeVec(&rv, &v2));
    EXPECT_TRUE(BitEqual(v, v2));
    EXPECT_EQ(rv.remaining(), 0u);
    // Dense
    DenseMatrix d(m, n);
    for (auto& x : d.data()) x = rng.Normal();
    ByteWriter wd;
    store::SerializeDense(d, &wd);
    ByteReader rd(wd.bytes());
    DenseMatrix d2;
    ASSERT_TRUE(store::DeserializeDense(&rd, &d2));
    ASSERT_EQ(d2.rows(), d.rows());
    ASSERT_EQ(d2.cols(), d.cols());
    EXPECT_TRUE(BitEqual(d.data(), d2.data()));
    // CSR: arrays must round-trip verbatim, not just the represented
    // matrix.
    CsrMatrix c = RandomCsr(m, n, &rng, rng.Uniform());
    ByteWriter wc;
    store::SerializeCsr(c, &wc);
    ByteReader rc(wc.bytes());
    CsrMatrix c2;
    ASSERT_TRUE(store::DeserializeCsr(&rc, &c2));
    ASSERT_EQ(c2.rows(), c.rows());
    ASSERT_EQ(c2.cols(), c.cols());
    EXPECT_EQ(c.indptr(), c2.indptr());
    EXPECT_EQ(c.indices(), c2.indices());
    EXPECT_TRUE(BitEqual(c.values(), c2.values()));
  }
}

TEST(SerializeTest, TruncatedPayloadsAreRejectedNotCrashed) {
  Rng rng(7);
  CsrMatrix c = RandomCsr(6, 9, &rng);
  ByteWriter w;
  store::SerializeCsr(c, &w);
  const std::vector<uint8_t> full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader r(full.data(), len);
    CsrMatrix out;
    EXPECT_FALSE(store::DeserializeCsr(&r, &out)) << "prefix " << len;
  }
  DenseMatrix d(4, 4, 1.5);
  ByteWriter wd;
  store::SerializeDense(d, &wd);
  for (std::size_t len = 0; len < wd.bytes().size(); len += 3) {
    ByteReader r(wd.bytes().data(), len);
    DenseMatrix out;
    EXPECT_FALSE(store::DeserializeDense(&r, &out));
  }
}

TEST(SerializeTest, StructurallyInvalidCsrIsRejected) {
  // Hand-build payloads violating each CSR invariant.
  const auto csr_payload = [](uint64_t rows, uint64_t cols, uint64_t nnz,
                              std::vector<uint64_t> indptr,
                              std::vector<uint64_t> indices,
                              std::vector<double> values) {
    ByteWriter w;
    w.U64(rows);
    w.U64(cols);
    w.U64(nnz);
    for (uint64_t v : indptr) w.U64(v);
    for (uint64_t v : indices) w.U64(v);
    for (double v : values) w.F64(v);
    return w.Take();
  };
  CsrMatrix out;
  {
    // Column index out of range.
    auto p = csr_payload(1, 2, 1, {0, 1}, {5}, {1.0});
    ByteReader r(p);
    EXPECT_FALSE(store::DeserializeCsr(&r, &out));
  }
  {
    // Non-monotone indptr.
    auto p = csr_payload(2, 2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0});
    ByteReader r(p);
    EXPECT_FALSE(store::DeserializeCsr(&r, &out));
  }
  {
    // indptr.back() != nnz.
    auto p = csr_payload(1, 2, 2, {0, 1}, {0, 1}, {1.0, 2.0});
    ByteReader r(p);
    EXPECT_FALSE(store::DeserializeCsr(&r, &out));
  }
  {
    // Absurd nnz (allocation bomb) with a tiny buffer.
    ByteWriter w;
    w.U64(1);
    w.U64(1);
    w.U64(uint64_t(1) << 60);
    ByteReader r(w.bytes());
    EXPECT_FALSE(store::DeserializeCsr(&r, &out));
  }
}

TEST(SerializeTest, ChecksumDetectsBitFlips) {
  std::vector<uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 31);
  const uint64_t sum = store::Checksum64(data);
  for (std::size_t i = 0; i < data.size(); i += 17) {
    data[i] ^= 0x40;
    EXPECT_NE(store::Checksum64(data), sum);
    data[i] ^= 0x40;
  }
  EXPECT_EQ(store::Checksum64(data), sum);
}

// -------------------------------------------------------- DiskArtifactStore

std::vector<uint8_t> Payload(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(DiskArtifactStoreTest, PutGetAndReopen) {
  const std::string dir = FreshDir("reopen");
  DiskStoreOptions opts;
  opts.hash_version = kHashVersion;
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    EXPECT_TRUE(s->Put({101, 0}, Payload("artifact-a")));
    EXPECT_TRUE(s->Put({102, 3}, Payload("artifact-b")));
    std::vector<uint8_t> got;
    EXPECT_TRUE(s->Get({101, 0}, &got));
    EXPECT_EQ(got, Payload("artifact-a"));
    EXPECT_FALSE(s->Get({101, 1}, &got));  // same hash, other kind
    EXPECT_FALSE(s->Get({999, 0}, &got));
  }  // destructor flushes the index
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    ASSERT_EQ(s->stats().entries, 2u);
    std::vector<uint8_t> got;
    EXPECT_TRUE(s->Get({102, 3}, &got));
    EXPECT_EQ(got, Payload("artifact-b"));
  }
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, RecoversAppendsWhenIndexCheckpointIsMissing) {
  const std::string dir = FreshDir("noindex");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    for (uint64_t h = 0; h < 8; ++h)
      ASSERT_TRUE(s->Put({h, 0}, Payload("p" + std::to_string(h))));
  }
  // Simulate write-behind: the log survived but the checkpoint did not.
  fs::remove(dir + "/artifacts.index");
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->stats().entries, 8u);
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({5, 0}, &got));
  EXPECT_EQ(got, Payload("p5"));
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, CorruptedRecordIsRejectedWithoutCrashing) {
  const std::string dir = FreshDir("corrupt");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    ASSERT_TRUE(s->Put({1, 0}, Payload("first-record-payload")));
    ASSERT_TRUE(s->Put({2, 0}, Payload("second-record-payload")));
  }
  // Flip one byte inside the *second* record's payload (the file tail).
  {
    std::FILE* f = std::fopen((dir + "/artifacts.data").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -3, SEEK_END);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({1, 0}, &got));  // intact record still served
  EXPECT_FALSE(s->Get({2, 0}, &got));  // checksum mismatch -> dropped
  EXPECT_GE(s->stats().corrupt_drops, 1u);
  // The dropped key can be re-stored.
  EXPECT_TRUE(s->Put({2, 0}, Payload("replacement")));
  EXPECT_TRUE(s->Get({2, 0}, &got));
  EXPECT_EQ(got, Payload("replacement"));
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, TornTailIsDroppedOnOpen) {
  const std::string dir = FreshDir("torn");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    ASSERT_TRUE(s->Put({1, 0}, Payload("keep-me")));
    ASSERT_TRUE(s->Put({2, 0}, Payload("i-will-be-torn")));
  }
  fs::remove(dir + "/artifacts.index");  // force a full scan
  // Chop the last record mid-payload, as a crash mid-append would.
  const auto full = fs::file_size(dir + "/artifacts.data");
  fs::resize_file(dir + "/artifacts.data", full - 5);
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({1, 0}, &got));
  EXPECT_FALSE(s->Get({2, 0}, &got));
  // The log is whole again: appends after the truncation point parse.
  EXPECT_TRUE(s->Put({3, 0}, Payload("after-recovery")));
  EXPECT_TRUE(s->Get({3, 0}, &got));
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, HashVersionMismatchInvalidatesCleanly) {
  const std::string dir = FreshDir("hashver");
  DiskStoreOptions v1;
  v1.hash_version = 1;
  {
    auto s = DiskArtifactStore::Open(dir, v1);
    ASSERT_TRUE(s);
    ASSERT_TRUE(s->Put({42, 0}, Payload("old-hash-scheme")));
  }
  DiskStoreOptions v2 = v1;
  v2.hash_version = 2;
  {
    // A process with a newer hash function must not see v1 artifacts.
    auto s = DiskArtifactStore::Open(dir, v2);
    ASSERT_TRUE(s);
    EXPECT_EQ(s->stats().entries, 0u);
    std::vector<uint8_t> got;
    EXPECT_FALSE(s->Get({42, 0}, &got));
    ASSERT_TRUE(s->Put({42, 0}, Payload("new-hash-scheme")));
  }
  {
    // And the v1 reader still finds its own record (both coexist in the
    // log until compaction).
    auto s = DiskArtifactStore::Open(dir, v1);
    ASSERT_TRUE(s);
    std::vector<uint8_t> got;
    ASSERT_TRUE(s->Get({42, 0}, &got));
    EXPECT_EQ(got, Payload("old-hash-scheme"));
  }
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, ByteBudgetedLruEviction) {
  const std::string dir = FreshDir("lru");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  opts.max_bytes = 1024;
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  const std::vector<uint8_t> blob(200, 0x5A);
  for (uint64_t h = 0; h < 8; ++h) ASSERT_TRUE(s->Put({h, 0}, blob));
  const auto st = s->stats();
  EXPECT_LE(st.live_bytes, 1024u);
  EXPECT_GT(st.evictions, 0u);
  // Most recently inserted survives; the oldest was evicted.
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({7, 0}, &got));
  EXPECT_FALSE(s->Get({0, 0}, &got));
  // Touching an entry protects it from the next eviction round.
  ASSERT_TRUE(s->Get({4, 0}, &got));
  for (uint64_t h = 100; h < 103; ++h) ASSERT_TRUE(s->Put({h, 0}, blob));
  EXPECT_TRUE(s->Get({4, 0}, &got));
  // A record larger than the whole budget is refused outright.
  EXPECT_FALSE(s->Put({999, 0}, std::vector<uint8_t>(4096, 1)));
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest,
     ColdNewcomerEvictsLruEntryEvenWhenResidentsAreHot) {
  const std::string dir = FreshDir("cold_newcomer");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  opts.max_bytes = 1100;  // three ~356-byte records fit; a fourth evicts
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  const std::vector<uint8_t> blob(300, 0x11);
  for (uint64_t h = 1; h <= 3; ++h) ASSERT_TRUE(s->Put({h, 0}, blob));
  std::vector<uint8_t> got;
  for (int i = 0; i < 10; ++i)
    for (uint64_t h = 1; h <= 3; ++h) ASSERT_TRUE(s->Get({h, 0}, &got));
  // Hit counts do not matter: a never-read newcomer is admitted and the
  // least recently used resident (hash 1, touched first each round) goes.
  EXPECT_TRUE(s->Put({50, 0}, blob));
  EXPECT_TRUE(s->Get({50, 0}, &got));
  EXPECT_GT(s->stats().evictions, 0u);
  EXPECT_FALSE(s->Get({1, 0}, &got));
  EXPECT_TRUE(s->Get({2, 0}, &got));
  EXPECT_TRUE(s->Get({3, 0}, &got));
  fs::remove_all(dir);
}

TEST(DiskArtifactStoreTest, CompactionDropsDeadBytesAndKeepsLiveRecords) {
  const std::string dir = FreshDir("compact");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  opts.max_bytes = 2048;
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  const std::vector<uint8_t> blob(300, 0x77);
  for (uint64_t h = 0; h < 20; ++h) ASSERT_TRUE(s->Put({h, 0}, blob));
  const auto before = s->stats();
  EXPECT_GT(before.data_bytes, before.live_bytes);  // dead bytes exist
  s->Compact();
  const auto after = s->stats();
  EXPECT_GE(after.compactions, 1u);
  EXPECT_LE(after.data_bytes, before.data_bytes);
  EXPECT_EQ(after.entries, before.entries);
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({19, 0}, &got));
  EXPECT_EQ(got, blob);
  fs::remove_all(dir);
}

#if EKTELO_FAILPOINTS_ENABLED
TEST(DiskArtifactStoreTest, ReopensCleanlyAfterEnospcMidCompaction) {
  const std::string dir = FreshDir("enospc_compact");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  opts.max_bytes = 2048;
  const std::vector<uint8_t> blob(300, 0x42);
  {
    auto s = DiskArtifactStore::Open(dir, opts);
    ASSERT_TRUE(s);
    // Same shape as the compaction test: enough churn that dead bytes
    // dominate and Compact has real work to do.
    for (uint64_t h = 0; h < 20; ++h) ASSERT_TRUE(s->Put({h, 0}, blob));

    // The device fills up while compaction rewrites live records into
    // the new-generation tmp file: the store must degrade (memory-only),
    // not corrupt the old log it was compacting away.
    failpoint::Registry::Global().Reset();
    ASSERT_TRUE(failpoint::Registry::Global().Arm("store.compact.write",
                                                  "error.enospc@2"));
    s->Compact();
    failpoint::Registry::Global().Reset();
    const auto st = s->stats();
    EXPECT_TRUE(st.degraded);
    EXPECT_GE(st.io_errors, 1u);
  }
  // Reopen: the original (pre-compaction) log is intact — the tmp file
  // was abandoned, the rename never happened — so every live record
  // survives bit-exact.
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  EXPECT_FALSE(s->stats().degraded);
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({19, 0}, &got));
  EXPECT_EQ(got, blob);
  // And the reopened store is fully writable again.
  EXPECT_TRUE(s->Put({99, 0}, blob));
  fs::remove_all(dir);
}
#endif  // EKTELO_FAILPOINTS_ENABLED

TEST(DiskArtifactStoreTest, SecondOpenerIsReadOnlyAndLockOutlivesCleanly) {
  const std::string dir = FreshDir("lockfile");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  auto writer = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(writer);
  EXPECT_FALSE(writer->stats().read_only);
  ASSERT_TRUE(writer->Put({7, 0}, Payload("from-the-writer")));

  // A second store on the same directory attaches read-only: it serves
  // what the writer has appended (the log is the source of truth) but
  // refuses to write.
  auto reader = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(reader);
  EXPECT_TRUE(reader->stats().read_only);
  std::vector<uint8_t> got;
  EXPECT_TRUE(reader->Get({7, 0}, &got));
  EXPECT_EQ(got, Payload("from-the-writer"));
  EXPECT_FALSE(reader->Put({8, 0}, Payload("refused")));
  reader.reset();  // a reader's close must NOT release the writer's lock
  EXPECT_TRUE(fs::exists(dir + "/artifacts.lock"));

  // Closing the writer releases the lock; the next opener writes again.
  writer.reset();
  EXPECT_FALSE(fs::exists(dir + "/artifacts.lock"));
  auto next = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(next);
  EXPECT_FALSE(next->stats().read_only);
  EXPECT_TRUE(next->Put({8, 0}, Payload("accepted")));
  fs::remove_all(dir);
}

#ifndef _WIN32
TEST(DiskArtifactStoreTest, StaleLockFromADeadWriterIsReclaimed) {
  const std::string dir = FreshDir("stalelock");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  // Populate, then simulate a crashed writer: the lock file survives
  // with a pid that no longer exists (beyond pid_max, so kill -> ESRCH).
  { ASSERT_TRUE(DiskArtifactStore::Open(dir, opts)->Put({1, 0},
                                                        Payload("kept"))); }
  {
    std::FILE* lf = std::fopen((dir + "/artifacts.lock").c_str(), "wb");
    ASSERT_NE(lf, nullptr);
    std::fputs("999999999\n", lf);
    std::fclose(lf);
  }
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  EXPECT_FALSE(s->stats().read_only);  // stale lock was reclaimed
  std::vector<uint8_t> got;
  EXPECT_TRUE(s->Get({1, 0}, &got));
  EXPECT_TRUE(s->Put({2, 0}, Payload("new")));
  fs::remove_all(dir);
}
#endif

TEST(DiskArtifactStoreTest, ConcurrentPutGetIsSafe) {
  const std::string dir = FreshDir("threads");
  DiskStoreOptions opts;
  opts.hash_version = 1;
  auto s = DiskArtifactStore::Open(dir, opts);
  ASSERT_TRUE(s);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < 50; ++i) {
        const uint64_t h = (i * 4 + uint64_t(t)) % 64;
        const std::vector<uint8_t> p(16, uint8_t(h));
        if (!s->Put({h, 0}, p)) ++failures;
        std::vector<uint8_t> got;
        if (s->Get({h, 0}, &got) && got != p) ++failures;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  fs::remove_all(dir);
}

// ------------------------------------------------------- write-behind queue

/// A job that parks the consumer thread until `Open()` — lets a test fill
/// the queue behind it deterministically.
struct ConsumerGate {
  std::promise<void> started, release;
  std::shared_future<void> released = release.get_future().share();

  std::function<void()> Job() {
    return [this] {
      started.set_value();
      released.wait();
    };
  }
  void AwaitStarted() { started.get_future().wait(); }
  void Open() { release.set_value(); }
};

obs::Counter& WriteBehindDroppedCounter() {
  return obs::Registry::Global().GetCounter(
      "ektelo_store_write_behind_dropped",
      "Disk spills refused by the bounded write-behind queue");
}

TEST(WriteBehindQueueTest, JobsRunInFifoOrder) {
  std::vector<int> order;  // touched only by the consumer until Drain
  store::WriteBehindQueue q(128);
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(q.Enqueue([&order, i] { order.push_back(i); }));
  q.Drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(WriteBehindQueueTest, DrainWaitsForEveryEarlierJob) {
  std::atomic<int> done{0};
  ConsumerGate gate;  // declared first: outlives the consumer
  store::WriteBehindQueue q(64);
  ASSERT_TRUE(q.Enqueue(gate.Job()));
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(q.Enqueue([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++done;
    }));
  gate.AwaitStarted();
  // The opener's delay keeps every job queued behind the gate when Drain
  // starts waiting.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Open();
  });
  q.Drain();
  EXPECT_EQ(done.load(), 20);
  EXPECT_EQ(q.stats().completed, 21u);
  opener.join();
}

TEST(WriteBehindQueueTest, FullQueueRefusesAndCountsTheDrop) {
  obs::Counter& dropped = WriteBehindDroppedCounter();
  const uint64_t dropped_before = dropped.Value();
  std::atomic<int> ran{0};
  ConsumerGate gate;  // declared first: outlives the consumer
  store::WriteBehindQueue q(2);
  ASSERT_TRUE(q.Enqueue(gate.Job()));
  gate.AwaitStarted();  // the consumer holds the gate job; queue is empty
  EXPECT_TRUE(q.Enqueue([&ran] { ++ran; }));
  EXPECT_TRUE(q.Enqueue([&ran] { ++ran; }));
  EXPECT_FALSE(q.Enqueue([&ran] { ran += 100; }));  // full: refused
  gate.Open();
  q.Drain();
  EXPECT_EQ(ran.load(), 2);
  const store::WriteBehindQueue::Stats st = q.stats();
  EXPECT_EQ(st.enqueued, 3u);
  EXPECT_EQ(st.dropped, 1u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(dropped.Value() - dropped_before, 1u);
}

TEST(WriteBehindQueueTest, DestructorRunsQueuedJobs) {
  std::atomic<int> ran{0};
  ConsumerGate gate;
  std::thread opener;
  {
    store::WriteBehindQueue q(16);
    ASSERT_TRUE(q.Enqueue(gate.Job()));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Enqueue([&ran] { ++ran; }));
    gate.AwaitStarted();
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.Open();
    });
    EXPECT_EQ(ran.load(), 0);
  }  // destroyed while five jobs still wait behind the gate
  EXPECT_EQ(ran.load(), 5);
  opener.join();
}

TEST(WriteBehindQueueTest, ZeroCapacityIsClampedToOne) {
  std::atomic<int> ran{0};
  ConsumerGate gate;  // declared first: outlives the consumer
  store::WriteBehindQueue q(0);
  ASSERT_TRUE(q.Enqueue(gate.Job()));
  gate.AwaitStarted();
  EXPECT_TRUE(q.Enqueue([&ran] { ++ran; }));   // the one slot
  EXPECT_FALSE(q.Enqueue([&ran] { ++ran; }));  // already full
  gate.Open();
  q.Drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(q.stats().dropped, 1u);
}

// ----------------------------------------------- structural-hash stability

TEST(HashStabilityTest, PersistabilityCoversBuiltinsOnly) {
  Rng rng(5);
  auto sparse = MakeSparse(RandomCsr(4, 6, &rng));
  EXPECT_TRUE(StructuralHashPersistable(*sparse));
  EXPECT_TRUE(StructuralHashPersistable(*MakeIdentityOp(8)));
  auto composite = MakeScaled(
      MakeVStack({MakeKronecker(MakePrefixOp(4), MakeIdentityOp(2)),
                  MakeRangeSetOp({{0, 3}, {2, 7}}, 8)}),
      2.5);
  EXPECT_TRUE(StructuralHashPersistable(*composite));
  EXPECT_TRUE(StructuralHashPersistable(*composite->Gram()));

  // Unknown subclasses hash per-instance: never persistable, and
  // neither is any composite containing one.
  class OpaqueOp final : public LinOp {
   public:
    OpaqueOp() : LinOp(3, 3) {}
    void ApplyRaw(const double* x, double* y) const override {
      for (int i = 0; i < 3; ++i) y[i] = x[i];
    }
    void ApplyTRaw(const double* x, double* y) const override {
      for (int i = 0; i < 3; ++i) y[i] = x[i];
    }
    std::string DebugName() const override { return "Opaque"; }
  };
  auto opaque = std::make_shared<OpaqueOp>();
  EXPECT_FALSE(StructuralHashPersistable(*opaque));
  EXPECT_FALSE(
      StructuralHashPersistable(*MakeVStack({MakeIdentityOp(3), opaque})));
  EXPECT_FALSE(StructuralHashPersistable(*MakeScaled(opaque, 2.0)));
}

TEST(HashStabilityTest, EqualConstructionHashesEqualAcrossInstances) {
  Rng rng(11);
  CsrMatrix c = RandomCsr(5, 16, &rng);
  auto build = [&c] {
    return MakeVStack(
        {MakeScaled(MakeSparse(c), 3.25),
         MakeKronecker(MakePrefixOp(4), MakeWaveletOp(4)),
         MakeRangeSetOp({{1, 2}, {0, 15}}, 16)});
  };
  auto a = build();
  auto b = build();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->StructuralHash(), b->StructuralHash());
  EXPECT_TRUE(a->StructuralEq(*b));
}

// Golden structural hashes: these values are the cross-process contract
// the persistent store keys on.  If this test fails, the hash function
// changed — bump kHashVersion in matrix/linop.h (old stores then
// invalidate cleanly) and update the goldens to the new values.
TEST(HashStabilityTest, GoldenHashesPinTheCrossProcessContract) {
  EXPECT_EQ(kHashVersion, 2u);

  const uint64_t h_ident8 = MakeIdentityOp(8)->StructuralHash();
  const uint64_t h_prefix16 = MakePrefixOp(16)->StructuralHash();
  const uint64_t h_ranges =
      MakeRangeSetOp({{0, 3}, {2, 5}}, 8)->StructuralHash();
  const uint64_t h_sparse =
      MakeSparse(CsrMatrix::FromTriplets(
                     2, 3, {{0, 0, 1.0}, {0, 2, -2.5}, {1, 1, 0.125}}))
          ->StructuralHash();
  DenseMatrix d(2, 2);
  d.At(0, 0) = 1.0;
  d.At(0, 1) = 2.0;
  d.At(1, 0) = 3.0;
  d.At(1, 1) = 4.0;
  const uint64_t h_dense = MakeDense(d)->StructuralHash();
  const uint64_t h_comp =
      MakeScaled(MakeKronecker(MakePrefixOp(4), MakeIdentityOp(2)), 2.5)
          ->StructuralHash();
  const uint64_t h_gram = MakePrefixOp(8)->Gram()->StructuralHash();

  EXPECT_EQ(h_ident8, 0xf3aa3f7f8d828748ull);
  EXPECT_EQ(h_prefix16, 0x8aa7ff9991f02220ull);
  EXPECT_EQ(h_ranges, 0xc9937077cca8ac92ull);
  EXPECT_EQ(h_sparse, 0x53260851d80da848ull);
  EXPECT_EQ(h_dense, 0xda8037cce0875fd1ull);
  EXPECT_EQ(h_comp, 0xa78aed5d4be99264ull);
  EXPECT_EQ(h_gram, 0x9f3530ca9867276full);
}

// ------------------------------------------------ OperatorCache disk tier

/// Attaches a fresh disk tier on `dir`, returning a cleanup guard.
struct TierGuard {
  explicit TierGuard(const std::string& dir) {
    DiskStoreOptions opts;
    opts.hash_version = kHashVersion;
    OperatorCache::Global().Clear();
    OperatorCache::Global().SetDiskTier(DiskArtifactStore::Open(dir, opts));
  }
  ~TierGuard() {
    OperatorCache::Global().SetDiskTier(nullptr);
    OperatorCache::Global().Clear();
  }
};

TEST(CacheDiskTierTest, ArtifactsSurviveAMemoryClearViaDisk) {
  const std::string dir = FreshDir("tier_roundtrip");
  Rng rng(21);
  CsrMatrix c = RandomCsr(12, 10, &rng);
  {
    TierGuard guard(dir);
    auto& cache = OperatorCache::Global();
    // A composed operator whose materialization/Gram are worth caching.
    auto op = MakeProduct(MakeSparse(c), MakePrefixOp(10));
    auto mat_cold = cache.MaterializeSparse(op);
    auto gram_cold = cache.GramDense(op);
    const double sens_cold = op->SensitivityL1();
    // Spills are write-behind: barrier before counting / relying on them.
    cache.FlushDiskTier();
    const auto st0 = cache.stats();
    EXPECT_GT(st0.disk_writes, 0u);

    // Simulate a fresh process: the memory tier empties, the disk tier
    // persists (same open store).
    cache.Clear();
    auto op2 = MakeProduct(MakeSparse(c), MakePrefixOp(10));
    auto mat_warm = cache.MaterializeSparse(op2);
    auto gram_warm = cache.GramDense(op2);
    const double sens_warm = op2->SensitivityL1();
    const auto st1 = cache.stats();
    EXPECT_GT(st1.disk_hits, st0.disk_hits);

    // Promoted artifacts are bit-identical to computed ones.
    EXPECT_EQ(mat_cold->indptr(), mat_warm->indptr());
    EXPECT_EQ(mat_cold->indices(), mat_warm->indices());
    EXPECT_TRUE(BitEqual(mat_cold->values(), mat_warm->values()));
    EXPECT_TRUE(BitEqual(gram_cold->data(), gram_warm->data()));
    EXPECT_TRUE(BitwiseEq(sens_cold, sens_warm));
  }
  fs::remove_all(dir);
}

TEST(CacheDiskTierTest, WarmStartAcrossStoreReopen) {
  const std::string dir = FreshDir("tier_reopen");
  Rng rng(23);
  CsrMatrix c = RandomCsr(16, 12, &rng);
  AlignedVec gram_cold_data;
  {
    TierGuard guard(dir);
    auto op = MakeSparse(c);
    gram_cold_data = OperatorCache::Global().GramDense(op)->data();
  }  // tier detached -> store flushed and closed
  {
    TierGuard guard(dir);  // second "process": same dir, fresh store
    auto op = MakeSparse(c);
    const auto before = OperatorCache::Global().stats();
    AlignedVec warm = OperatorCache::Global().GramDense(op)->data();
    const auto after = OperatorCache::Global().stats();
    EXPECT_GT(after.disk_hits, before.disk_hits);
    EXPECT_TRUE(BitEqual(gram_cold_data, warm));
  }
  fs::remove_all(dir);
}

TEST(CacheDiskTierTest, UnknownOperatorsNeverTouchTheStore) {
  class OpaqueOp final : public LinOp {
   public:
    OpaqueOp() : LinOp(4, 4) {}
    void ApplyRaw(const double* x, double* y) const override {
      for (int i = 0; i < 4; ++i) y[i] = 2.0 * x[i];
    }
    void ApplyTRaw(const double* x, double* y) const override {
      ApplyRaw(x, y);
    }
    std::string DebugName() const override { return "Opaque"; }
  };
  const std::string dir = FreshDir("tier_unknown");
  {
    TierGuard guard(dir);
    auto& cache = OperatorCache::Global();
    const auto before = cache.stats();  // counters are process-cumulative
    auto op = std::make_shared<OpaqueOp>();
    (void)cache.MaterializeSparse(op);
    (void)op->SensitivityL1();
    const auto st = cache.stats();
    EXPECT_EQ(st.disk_writes, before.disk_writes);
    EXPECT_EQ(st.disk_hits, before.disk_hits);
    EXPECT_EQ(st.disk_misses, before.disk_misses);
    EXPECT_EQ(cache.disk_tier()->stats().puts, 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ektelo
