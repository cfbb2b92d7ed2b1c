#include "common.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace sb {

int64_t ProcStatusKb(int pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kb = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoll(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key);
  body_ += ": ";
}

JsonObject& JsonObject::Num(std::string_view key, double v) {
  Key(key);
  if (!std::isfinite(v)) {
    body_ += "null";
  } else {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    body_.append(buf, res.ptr);
  }
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view v) {
  Key(key);
  body_ += JsonQuote(v);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace sb
