#ifndef XAR_COMMON_ENUM_OPTION_H_
#define XAR_COMMON_ENUM_OPTION_H_

#include <initializer_list>
#include <string>
#include <string_view>

#include "common/result.h"

namespace xar {

/// One accepted spelling of a user-facing enum option.
template <typename T>
struct EnumOption {
  std::string_view name;
  T value;
};

/// Uniform parser behind every *FromString helper (RoutingBackendFromString,
/// OracleCachePolicyFromString, ...): matches `value` against the accepted
/// spellings and, on an unknown name, returns one InvalidArgument shape that
/// names the option, echoes the typo and lists the valid spellings:
///
///   unknown <option> "<value>" (valid: a, b, c)
///
/// Use it wherever the name comes from user input (CLI flags, environment
/// variables, config files) so a typo is a hard error, never a silent
/// fall-through to a default.
template <typename T>
Result<T> ParseEnumOption(std::string_view option, std::string_view value,
                          std::initializer_list<EnumOption<T>> entries) {
  for (const EnumOption<T>& entry : entries) {
    if (value == entry.name) return entry.value;
  }
  std::string message;
  message.reserve(64);
  message += "unknown ";
  message += option;
  message += " \"";
  message += value;
  message += "\" (valid: ";
  bool first = true;
  for (const EnumOption<T>& entry : entries) {
    if (!first) message += ", ";
    message += entry.name;
    first = false;
  }
  message += ")";
  return Status::InvalidArgument(std::move(message));
}

}  // namespace xar

#endif  // XAR_COMMON_ENUM_OPTION_H_
