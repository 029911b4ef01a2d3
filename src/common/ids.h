// Identifiers for the hardware platforms, inference tasks, and contention scenarios of
// the paper's evaluation (Tables 1-3).
#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <string_view>
#include <utility>

namespace alert {

// Table 1 platforms.  Values index per-platform arrays (e.g. DnnModel::ref_latency).
enum class PlatformId : int {
  kEmbedded = 0,  // ARM Cortex A-15 class board
  kCpu1 = 1,      // Core-i7 laptop
  kCpu2 = 2,      // Xeon Gold server
  kGpu = 3,       // RTX 2080 discrete GPU
};
inline constexpr int kNumPlatforms = 4;

// The platforms' command-line tokens, shared by every binary's --platform flag.
inline constexpr std::pair<std::string_view, PlatformId> kPlatformTokens[] = {
    {"embedded", PlatformId::kEmbedded},
    {"cpu1", PlatformId::kCpu1},
    {"cpu2", PlatformId::kCpu2},
    {"gpu", PlatformId::kGpu}};

// Table 2 tasks.
enum class TaskId : int {
  kImageClassification = 0,  // IMG1/IMG2 and the Sparse-ResNet evaluation family
  kSentencePrediction = 1,   // NLP1 and the RNN evaluation family
  kQuestionAnswering = 2,    // NLP2 (BERT); profiling figures only
};

// Run-time environments of Table 3.
enum class ContentionType : int {
  kNone = 0,     // "Default"
  kMemory = 1,   // STREAM-like co-runner (Backprop on GPU)
  kCompute = 2,  // PARSEC-bodytrack-like co-runner (Backprop forward pass on GPU)
};

constexpr std::string_view PlatformName(PlatformId p) {
  switch (p) {
    case PlatformId::kEmbedded:
      return "Embedded";
    case PlatformId::kCpu1:
      return "CPU1";
    case PlatformId::kCpu2:
      return "CPU2";
    case PlatformId::kGpu:
      return "GPU";
  }
  return "?";
}

constexpr std::string_view TaskName(TaskId t) {
  switch (t) {
    case TaskId::kImageClassification:
      return "ImageClassification";
    case TaskId::kSentencePrediction:
      return "SentencePrediction";
    case TaskId::kQuestionAnswering:
      return "QuestionAnswering";
  }
  return "?";
}

constexpr std::string_view ContentionName(ContentionType c) {
  switch (c) {
    case ContentionType::kNone:
      return "Default";
    case ContentionType::kMemory:
      return "Memory";
    case ContentionType::kCompute:
      return "Compute";
  }
  return "?";
}

}  // namespace alert

#endif  // SRC_COMMON_IDS_H_
