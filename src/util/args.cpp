#include "util/args.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace appfl::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    APPFL_CHECK_MSG(!body.empty(), "bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_.push_back({body.substr(0, eq), body.substr(eq + 1)});
      continue;
    }
    // "--name value" form: consume the next token unless it is a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.push_back({body, std::string(argv[i + 1])});
      ++i;
    } else {
      flags_.push_back({body, std::nullopt});
    }
  }
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) {
      f.queried = true;
      return &f;
    }
  }
  return nullptr;
}

bool ArgParser::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  const Flag* f = find(name);
  return f == nullptr ? std::nullopt : f->value;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto v = value(name);
  return v.has_value() ? *v : fallback;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto v = value(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  APPFL_CHECK_MSG(end != nullptr && *end == '\0',
                  "--" << name << " expects an integer, got '" << *v << "'");
  return parsed;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = value(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  APPFL_CHECK_MSG(end != nullptr && *end == '\0',
                  "--" << name << " expects a number, got '" << *v << "'");
  return parsed;
}

std::vector<std::string> ArgParser::unknown_flags() const {
  std::vector<std::string> out;
  for (const auto& f : flags_) {
    if (!f.queried) out.push_back(f.name);
  }
  return out;
}

}  // namespace appfl::util
