// Fixture: a static lock-rank inversion the analyzer must catch.
//
// `wal_side_mu_` sits above `lock_side_mu_` in declared rank, so acquiring
// the lower-ranked mutex while the higher-ranked one is held is exactly the
// lexical pattern that deadlocks against a thread taking them in the
// documented order. ivdb_lint --fixtures asserts the rule below fires.
//
// LINT-EXPECT: static-rank-inversion

#include "common/mutex.h"

namespace ivdb {
namespace lint_fixture {

RankedMutex lock_side_mu_{LockRank::kLockManager, "lock_side_mu_"};
RankedMutex wal_side_mu_{LockRank::kWalShard, "wal_side_mu_"};

void AcquireAgainstDeclaredOrder() {
  MutexLock outer(&wal_side_mu_);   // rank 58
  MutexLock inner(&lock_side_mu_);  // rank 30: inversion
}

}  // namespace lint_fixture
}  // namespace ivdb
