#include "xar/env_options.h"

#include <cstdlib>
#include <limits>
#include <string>

#include "common/result.h"

namespace xar {
namespace {

// Annotates a parse failure with the environment variable it came from, so
// `XAR_ROUTING_BACKEND=cj` reports the variable to fix, not just the typo.
template <typename T, typename Field>
Status ApplyParsed(const char* variable, Result<T> (*parse)(std::string_view),
                   Field* field) {
  const char* env = std::getenv(variable);
  if (env == nullptr) return Status::OK();
  Result<T> parsed = parse(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument(std::string(variable) + ": " +
                                   parsed.status().message());
  }
  *field = parsed.value();
  return Status::OK();
}

// A plain decimal that fits in size_t: digits only, no sign, no suffix.
Result<std::size_t> SizeFromString(std::string_view text) {
  bool valid = !text.empty();
  std::size_t value = 0;
  for (char c : text) {
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (c < '0' || c > '9' ||
        value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      valid = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!valid) {
    return Status::InvalidArgument(
        "expected a decimal count that fits in size_t, got \"" +
        std::string(text) + "\"");
  }
  return value;
}

}  // namespace

Status ApplyEnvOverrides(XarOptions* options) {
  Status status = ApplyParsed("XAR_ROUTING_BACKEND", RoutingBackendFromString,
                              &options->routing_backend);
  if (!status.ok()) return status;
  return ApplyParsed("XAR_PREPROCESS_THREADS", SizeFromString,
                     &options->preprocess_threads);
}

}  // namespace xar
