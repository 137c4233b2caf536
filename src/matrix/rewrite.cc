#include "matrix/rewrite.h"

#include <atomic>
#include <utility>

#include "matrix/rules.h"

namespace ektelo {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool RewriteEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetRewriteEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

LinOpPtr Rewrite(LinOpPtr op) { return rules::Canonicalize(op); }

LinOpPtr MaybeRewrite(LinOpPtr op) {
  return RewriteEnabled() ? Rewrite(std::move(op)) : op;
}

}  // namespace ektelo
