#include "serve/protocol.h"

#include "store/serialize.h"
#include "util/net.h"

namespace ektelo::serve {

namespace {

constexpr std::size_t kMaxNameLen = 4096;
constexpr std::size_t kMaxRanges = std::size_t{1} << 22;
constexpr std::size_t kMaxDims = 64;

void PutString(const std::string& s, store::ByteWriter* w) {
  w->U64(s.size());
  w->Raw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

bool GetString(store::ByteReader* r, std::string* s,
               std::size_t max_len = kMaxNameLen) {
  uint64_t len;
  if (!r->U64(&len) || len > max_len || r->remaining() < len) return false;
  s->resize(std::size_t(len));
  for (std::size_t i = 0; i < len; ++i) {
    uint8_t b;
    if (!r->U8(&b)) return false;
    (*s)[i] = char(b);
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeInvokeRequest(const InvokeRequest& req) {
  store::ByteWriter w;
  w.U64(req.request_id);
  PutString(req.tenant, &w);
  PutString(req.plan, &w);
  w.F64(req.eps);
  w.U64(req.dims.size());
  for (std::size_t d : req.dims) w.U64(d);
  w.U64(req.ranges.size());
  for (const RangeQuery& q : req.ranges) {
    w.U64(q.lo);
    w.U64(q.hi);
  }
  w.F64(req.known_total);
  w.U64(req.stripe_dim);
  w.U8(req.mode);
  w.U8(req.coalesce ? 1 : 0);
  return w.Take();
}

bool DecodeInvokeRequest(const std::vector<uint8_t>& bytes,
                         InvokeRequest* req) {
  store::ByteReader r(bytes);
  uint64_t n;
  if (!r.U64(&req->request_id) || !GetString(&r, &req->tenant) ||
      !GetString(&r, &req->plan) || !r.F64(&req->eps) || !r.U64(&n) ||
      n > kMaxDims)
    return false;
  req->dims.resize(std::size_t(n));
  for (auto& d : req->dims) {
    uint64_t v;
    if (!r.U64(&v)) return false;
    d = std::size_t(v);
  }
  if (!r.U64(&n) || n > kMaxRanges || r.remaining() / 16 < n) return false;
  req->ranges.resize(std::size_t(n));
  for (auto& q : req->ranges) {
    uint64_t lo, hi;
    if (!r.U64(&lo) || !r.U64(&hi)) return false;
    q.lo = std::size_t(lo);
    q.hi = std::size_t(hi);
  }
  uint64_t stripe;
  uint8_t coalesce;
  if (!r.F64(&req->known_total) || !r.U64(&stripe) || !r.U8(&req->mode) ||
      !r.U8(&coalesce) || r.remaining() != 0)
    return false;
  req->stripe_dim = std::size_t(stripe);
  req->coalesce = coalesce != 0;
  return true;
}

std::vector<uint8_t> EncodeInvokeReply(const InvokeReply& reply) {
  store::ByteWriter w;
  w.U64(reply.request_id);
  w.U8(uint8_t(reply.code));
  PutString(reply.message, &w);
  w.U8(reply.coalesced ? 1 : 0);
  w.F64(reply.eps_charged);
  store::SerializeVec(reply.estimate, &w);
  return w.Take();
}

bool DecodeInvokeReply(const std::vector<uint8_t>& bytes,
                       InvokeReply* reply) {
  store::ByteReader r(bytes);
  uint8_t code, coalesced;
  if (!r.U64(&reply->request_id) || !r.U8(&code) ||
      !GetString(&r, &reply->message, kMaxNameLen * 4) || !r.U8(&coalesced) ||
      !r.F64(&reply->eps_charged) ||
      !store::DeserializeVec(&r, &reply->estimate) || r.remaining() != 0 ||
      code > uint8_t(ReplyCode::kDeadlineExceeded))
    return false;
  reply->code = ReplyCode(code);
  reply->coalesced = coalesced != 0;
  return true;
}

std::vector<uint8_t> EncodeTextReply(const std::string& text) {
  store::ByteWriter w;
  PutString(text, &w);
  return w.Take();
}

bool DecodeTextReply(const std::vector<uint8_t>& bytes, std::string* text) {
  store::ByteReader r(bytes);
  // The blob is bounded by the frame payload cap, not the name cap.
  return GetString(&r, text, kMaxPayloadBytes) && r.remaining() == 0;
}

Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes)
    return Status::InvalidArgument("frame payload too large");
  // Header, payload and checksum trailer go out in one gather write:
  // the payload is sent from the caller's buffer, never copied.
  store::ByteWriter header;
  header.U32(kFrameMagic);
  header.U8(uint8_t(type));
  header.U32(uint32_t(payload.size()));
  store::ByteWriter trailer;
  trailer.U64(store::Checksum64(payload));
  const net::ByteSpan spans[] = {
      {header.bytes().data(), header.bytes().size()},
      {payload.data(), payload.size()},
      {trailer.bytes().data(), trailer.bytes().size()}};
  return net::SendAllV(fd, spans, 3);
}

namespace {
/// A clean EOF after the header is a torn frame, not a clean close.
Status MidFrame(Status s) {
  if (!s.ok() && s.code() == StatusCode::kUnavailable)
    return Status::Internal("connection closed mid-frame");
  return s;
}
}  // namespace

Status ReadFrame(int fd, MsgType* type, std::vector<uint8_t>* payload) {
  uint8_t header[9];
  // kUnavailable here IS the clean peer-close path (zero bytes read).
  Status s = net::RecvAll(fd, header, sizeof(header));
  if (!s.ok()) return s;
  store::ByteReader r(header, sizeof(header));
  uint32_t magic = 0, len = 0;
  uint8_t t = 0;
  r.U32(&magic);
  r.U8(&t);
  r.U32(&len);
  if (magic != kFrameMagic)
    return Status::InvalidArgument("bad frame magic");
  if (len > kMaxPayloadBytes)
    return Status::InvalidArgument("frame payload too large");
  payload->resize(len);
  if (len > 0) {
    s = MidFrame(net::RecvAll(fd, payload->data(), len));
    if (!s.ok()) return s;
  }
  uint8_t sumbuf[8];
  s = MidFrame(net::RecvAll(fd, sumbuf, sizeof(sumbuf)));
  if (!s.ok()) return s;
  store::ByteReader sr(sumbuf, sizeof(sumbuf));
  uint64_t want = 0;
  sr.U64(&want);
  if (store::Checksum64(*payload) != want)
    return Status::InvalidArgument("frame checksum mismatch");
  *type = MsgType(t);
  return Status::Ok();
}

}  // namespace ektelo::serve
