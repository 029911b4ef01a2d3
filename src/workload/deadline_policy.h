// Per-input deadline assignment (step 2 of the ALERT workflow, Section 3.2).
//
// Image classification uses a fixed per-input deadline (periodic sensor inputs).
// Sentence prediction shares one deadline across all words of a sentence: a slow word
// shrinks the time available to the rest of the sentence, which is exactly the dynamic
// requirement variation ALERT's goal-adjustment step targets.  The policy is part of
// the harness so that every scheme faces identical per-input deadlines.
#ifndef SRC_WORKLOAD_DEADLINE_POLICY_H_
#define SRC_WORKLOAD_DEADLINE_POLICY_H_

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/workload/trace.h"

namespace alert {

// A deadline policy answers, for input n given everything completed so far:
//   Seconds DeadlineFor(int n);    its deadline;
//   Seconds PeriodFor(int n);      its idle-energy accounting period (usually the
//                                  deadline);
//   void OnCompleted(int n, Seconds latency);  the completed input's latency.
// The harness resolves the policy type once per run (Experiment's replay loop), so
// the calls are direct.

// Every input gets the same deadline and period.
class FixedDeadlinePolicy {
 public:
  explicit FixedDeadlinePolicy(Seconds deadline) : deadline_(deadline) {
    ALERT_CHECK(deadline > 0.0);
  }

  Seconds DeadlineFor(int) const { return deadline_; }
  Seconds PeriodFor(int) const { return deadline_; }
  void OnCompleted(int, Seconds) {}

 private:
  Seconds deadline_;
};

// Words of a sentence share budget = per_word_budget * sentence_length; each word's
// deadline is the remaining budget divided by the remaining words, floored at a small
// fraction of the nominal share (a sentence that overran its budget cannot recover —
// the paper notes even the Oracle fails on such sentences).
class SentenceSharedDeadlinePolicy {
 public:
  // `trace` must outlive the policy and must carry sentence structure.
  SentenceSharedDeadlinePolicy(const EnvironmentTrace& trace, Seconds per_word_budget);

  Seconds DeadlineFor(int input_index);
  Seconds PeriodFor(int input_index);
  void OnCompleted(int input_index, Seconds latency);

 private:
  const EnvironmentTrace& trace_;
  Seconds per_word_budget_;
  int current_sentence_ = -1;
  Seconds elapsed_in_sentence_ = 0.0;
};

}  // namespace alert

#endif  // SRC_WORKLOAD_DEADLINE_POLICY_H_
