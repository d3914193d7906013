// Minimal dependency-free JSON writer for the observability layer.
//
// The writer streams into a std::string (no DOM) and is what every obs
// artifact — Chrome traces, pfpl-metrics/1 documents, bench --json rows —
// is serialized with. The tests read those artifacts back with the parser
// in tests/json_value.hpp.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace repro::obs {

/// Escape a string for inclusion in a JSON document (quotes not included).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming JSON writer: begin/end object/array scopes, key/value pairs.
/// Commas are inserted automatically; the caller is responsible for
/// balancing scopes (asserted in end()).
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    out_ += '"';
    out_ += json_escape(k);
    out_ += "\":";
    just_keyed_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    comma();
    out_ += '"';
    out_ += json_escape(v);
    out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";  // JSON has no Inf/NaN
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(unsigned long long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(long long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(unsigned long v) { return value(static_cast<unsigned long long>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<unsigned long long>(v)); }
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }

  /// Splice a pre-rendered JSON fragment (must itself be valid JSON).
  JsonWriter& raw(const std::string& fragment) {
    comma();
    out_ += fragment;
    return *this;
  }

  template <typename K, typename V>
  JsonWriter& kv(const K& k, const V& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    need_comma_ = true;
    just_keyed_ = false;
    return *this;
  }
  void comma() {
    if (just_keyed_) {
      just_keyed_ = false;
      need_comma_ = true;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }

  std::string out_;
  bool need_comma_ = false;
  bool just_keyed_ = false;
};

}  // namespace repro::obs
