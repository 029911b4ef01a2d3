#include "src/workload/deadline_policy.h"

#include <algorithm>

#include "src/common/check.h"

namespace alert {
namespace {

// Lower bound on a word deadline, as a fraction of the nominal per-word share.
constexpr double kMinShareFraction = 0.10;

}  // namespace

SentenceSharedDeadlinePolicy::SentenceSharedDeadlinePolicy(const EnvironmentTrace& trace,
                                                           Seconds per_word_budget)
    : trace_(trace), per_word_budget_(per_word_budget) {
  ALERT_CHECK(trace.has_sentences());
  ALERT_CHECK(per_word_budget > 0.0);
}

Seconds SentenceSharedDeadlinePolicy::DeadlineFor(int input_index) {
  const int sentence = trace_.sentence_of_input[static_cast<size_t>(input_index)];
  if (sentence != current_sentence_) {
    current_sentence_ = sentence;
    elapsed_in_sentence_ = 0.0;
  }
  const int len = trace_.sentence_length[static_cast<size_t>(sentence)];
  const int word = trace_.word_in_sentence[static_cast<size_t>(input_index)];
  const Seconds budget = per_word_budget_ * static_cast<double>(len);
  const Seconds remaining_time = budget - elapsed_in_sentence_;
  const int remaining_words = len - word;
  ALERT_DCHECK(remaining_words >= 1);
  const Seconds share = remaining_time / static_cast<double>(remaining_words);
  return std::max(share, kMinShareFraction * per_word_budget_);
}

Seconds SentenceSharedDeadlinePolicy::PeriodFor(int input_index) {
  return DeadlineFor(input_index);
}

void SentenceSharedDeadlinePolicy::OnCompleted(int input_index, Seconds latency) {
  const int sentence = trace_.sentence_of_input[static_cast<size_t>(input_index)];
  if (sentence != current_sentence_) {
    current_sentence_ = sentence;
    elapsed_in_sentence_ = 0.0;
  }
  elapsed_in_sentence_ += latency;
}

}  // namespace alert
