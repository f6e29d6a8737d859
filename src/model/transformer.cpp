#include "model/transformer.h"

#include "common/error.h"

namespace bfpp::model {

void validate(const TransformerSpec& spec) {
  check_config(spec.n_layers > 0, "model: n_layers must be positive");
  check_config(spec.n_heads > 0, "model: n_heads must be positive");
  check_config(spec.head_size > 0, "model: head_size must be positive");
  check_config(spec.hidden_size > 0, "model: hidden_size must be positive");
  check_config(spec.seq_len > 0, "model: seq_len must be positive");
  check_config(spec.vocab_size > 0, "model: vocab_size must be positive");
  check_config(spec.n_heads * spec.head_size == spec.hidden_size,
               "model %s: n_heads (%d) * head_size (%d) != hidden (%d)",
               spec.name.c_str(), spec.n_heads, spec.head_size,
               spec.hidden_size);
}

TransformerSpec model_52b() {
  return {"52B", /*n_layers=*/64, /*n_heads=*/64, /*head_size=*/128,
          /*hidden_size=*/8192, /*seq_len=*/1024, /*vocab_size=*/30592};
}

TransformerSpec model_6_6b() {
  return {"6.6B", /*n_layers=*/32, /*n_heads=*/32, /*head_size=*/128,
          /*hidden_size=*/4096, /*seq_len=*/1024, /*vocab_size=*/30592};
}

TransformerSpec model_gpt3() {
  return {"GPT-3", /*n_layers=*/96, /*n_heads=*/96, /*head_size=*/128,
          /*hidden_size=*/12288, /*seq_len=*/2048, /*vocab_size=*/51200};
}

TransformerSpec model_1t() {
  return {"1T", /*n_layers=*/128, /*n_heads=*/160, /*head_size=*/160,
          /*hidden_size=*/25600, /*seq_len=*/2048, /*vocab_size=*/51200};
}

}  // namespace bfpp::model
