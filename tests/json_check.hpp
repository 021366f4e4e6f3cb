// Test helper: a minimal JSON validator — enough to prove an exported file
// is well-formed: balanced braces/brackets outside strings, valid escapes,
// nothing left open. (No third-party JSON dependency in the image.)
#pragma once

#include <string>
#include <vector>

namespace appfl::testutil {

inline bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

}  // namespace appfl::testutil
