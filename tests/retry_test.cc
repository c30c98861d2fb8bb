// Unit tests for the transient-fault primitives: errno classification
// through Status::FromErrno (the single translation funnel for every Env
// backend), the retryability bit, and the RunWithRetry loop (attempt
// budget, deadline, deterministic jittered backoff, counter accounting).
#include "src/util/retry.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/util/status.h"

namespace nxgraph {
namespace {

TEST(StatusClassificationTest, TransientErrnosAreRetryable) {
  for (int err : {EINTR, EAGAIN, EWOULDBLOCK, EBUSY, ETIMEDOUT, ENOBUFS}) {
    Status s = Status::FromErrno("read", err);
    EXPECT_TRUE(s.IsIOError()) << err;
    EXPECT_TRUE(s.retryable()) << err;
    EXPECT_EQ(s.sys_errno(), err);
    EXPECT_TRUE(Status::TransientErrno(err)) << err;
  }
}

TEST(StatusClassificationTest, PermanentErrnosAreNotRetryable) {
  // EIO is media failure (surface, don't retry) and ENOSPC does not
  // heal on a tight retry loop — both stay permanent by design.
  for (int err : {EIO, ENOSPC, EACCES, EBADF, EINVAL}) {
    Status s = Status::FromErrno("write", err);
    EXPECT_FALSE(s.retryable()) << err;
    EXPECT_EQ(s.sys_errno(), err);
    EXPECT_FALSE(Status::TransientErrno(err)) << err;
  }
}

TEST(StatusClassificationTest, EnoentIsPermanentIOError) {
  // FromErrno only classifies retryability; the open-path ENOENT -> NotFound
  // mapping lives in PosixOpenError, which knows it was an open.
  Status s = Status::FromErrno("open", ENOENT);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_FALSE(s.retryable());
  EXPECT_EQ(s.sys_errno(), ENOENT);
}

TEST(StatusClassificationTest, MakeRetryablePreservesCodeAndErrno) {
  Status corruption = Status::Corruption("segment truncated");
  Status retryable = Status::MakeRetryable(corruption);
  EXPECT_TRUE(retryable.IsCorruption());
  EXPECT_TRUE(retryable.retryable());
  // Idempotent, and a no-op on OK.
  EXPECT_TRUE(Status::MakeRetryable(retryable).retryable());
  EXPECT_TRUE(Status::MakeRetryable(Status::OK()).ok());

  Status io = Status::MakeRetryable(Status::FromErrno("write", ENOSPC));
  EXPECT_EQ(io.sys_errno(), ENOSPC);
  EXPECT_TRUE(io.retryable());

  EXPECT_TRUE(Status::TransientIOError("hiccup").retryable());
  EXPECT_TRUE(Status::TransientIOError("hiccup").IsIOError());
}

// Zero-wait policy for loop-semantics tests: no backoff sleeps, so the
// attempt accounting is exact and the tests are instant.
RetryPolicy InstantPolicy(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.backoff_initial_micros = 0;
  policy.backoff_max_micros = 0;
  return policy;
}

TEST(RunWithRetryTest, SucceedsAfterTransientFailures) {
  RetryCounters counters;
  int calls = 0;
  Status s = RunWithRetry(InstantPolicy(4), &counters, [&] {
    return ++calls < 3 ? Status::TransientIOError("flaky") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(counters.io_retries.load(), 2u);
}

TEST(RunWithRetryTest, NonRetryableFailsImmediately) {
  RetryCounters counters;
  int calls = 0;
  Status s = RunWithRetry(InstantPolicy(4), &counters, [&] {
    ++calls;
    return Status::FromErrno("write", EIO);
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.sys_errno(), EIO);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(counters.io_retries.load(), 0u);
}

TEST(RunWithRetryTest, ExhaustsAttemptsAndReturnsLastStatus) {
  RetryCounters counters;
  int calls = 0;
  Status s = RunWithRetry(InstantPolicy(4), &counters, [&] {
    ++calls;
    return Status::TransientIOError("attempt " + std::to_string(calls));
  });
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.retryable());
  EXPECT_EQ(s.message(), "attempt 4");
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(counters.io_retries.load(), 3u);
}

TEST(RunWithRetryTest, MaxAttemptsOneDisablesRetrying) {
  int calls = 0;
  Status s = RunWithRetry(InstantPolicy(1), nullptr, [&] {
    ++calls;
    return Status::TransientIOError("flaky");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
  // 0 is treated as 1, not as unlimited.
  calls = 0;
  (void)RunWithRetry(InstantPolicy(0), nullptr, [&] {
    ++calls;
    return Status::TransientIOError("flaky");
  });
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetryTest, DeadlineCutsOffRemainingAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_initial_micros = 2000;
  policy.backoff_multiplier = 1.0;
  policy.backoff_max_micros = 2000;
  policy.op_deadline_seconds = 0.005;  // room for ~2-5 waits, never 99
  RetryCounters counters;
  int calls = 0;
  Status s = RunWithRetry(policy, &counters, [&] {
    ++calls;
    return Status::TransientIOError("persistent");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_LT(calls, 100);
  EXPECT_GT(counters.retry_wait_micros.load(), 0u);
  EXPECT_LE(counters.retry_wait_micros.load(), 5000u);
}

TEST(BackoffTest, DeterministicJitterWithinBounds) {
  RetryPolicy policy;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    for (uint64_t salt : {0ull, 1ull, 42ull}) {
      const uint64_t a = policy.BackoffMicros(attempt, salt);
      const uint64_t b = policy.BackoffMicros(attempt, salt);
      EXPECT_EQ(a, b) << "jitter must be deterministic";
      // Nominal backoff capped at max; jitter scales it into [0.5, 1.0).
      double nominal = static_cast<double>(policy.backoff_initial_micros);
      for (int i = 1; i < attempt; ++i) nominal *= policy.backoff_multiplier;
      if (nominal > policy.backoff_max_micros) {
        nominal = static_cast<double>(policy.backoff_max_micros);
      }
      EXPECT_GE(a, static_cast<uint64_t>(nominal * 0.5) - 1) << attempt;
      EXPECT_LT(a, static_cast<uint64_t>(nominal) + 1) << attempt;
    }
  }
  // Different salts decorrelate consecutive retries.
  EXPECT_NE(policy.BackoffMicros(3, 7), policy.BackoffMicros(3, 8));
}

TEST(BackoffTest, GrowthIsCappedAtMax) {
  RetryPolicy policy;  // 100us * 8^k capped at 50ms
  EXPECT_LE(policy.BackoffMicros(10, 0), policy.backoff_max_micros);
  EXPECT_GE(policy.BackoffMicros(10, 0), policy.backoff_max_micros / 2);
}

}  // namespace
}  // namespace nxgraph
