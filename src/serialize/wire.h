// Protobuf-style wire codec (substitution for Google Protocol Buffers,
// which the paper uses to serialize complex values and the op indicator,
// §III.G). Same discipline: varint-encoded tagged fields, length-delimited
// byte strings, unknown-field tolerance so message schemas can evolve.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace zht::wire {

enum class WireType : std::uint8_t {
  kVarint = 0,
  kLengthDelimited = 2,
  kFixed64 = 1,
};

// Bytes PutVarint writes for `value`; lets encoders size their output
// before writing it.
inline std::size_t VarintSize(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

// ---- Writer ---------------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void PutVarint(std::uint64_t value);
  void PutFixed64(std::uint64_t value);
  void PutBytes(std::string_view bytes);  // raw, no length prefix

  void PutTag(std::uint32_t field, WireType type) {
    PutVarint((static_cast<std::uint64_t>(field) << 3) |
              static_cast<std::uint64_t>(type));
  }

  // Tagged fields.
  void PutVarintField(std::uint32_t field, std::uint64_t value) {
    PutTag(field, WireType::kVarint);
    PutVarint(value);
  }
  void PutFixed64Field(std::uint32_t field, std::uint64_t value) {
    PutTag(field, WireType::kFixed64);
    PutFixed64(value);
  }
  void PutStringField(std::uint32_t field, std::string_view value) {
    PutTag(field, WireType::kLengthDelimited);
    PutVarint(value.size());
    PutBytes(value);
  }
  // Signed varint (zigzag).
  void PutSignedField(std::uint32_t field, std::int64_t value) {
    PutVarintField(field, ZigZagEncode(value));
  }

  static std::uint64_t ZigZagEncode(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

 private:
  std::string* out_;
};

// ---- Reader ---------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool AtEnd() const { return pos_ >= data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  // All getters return false on malformed/truncated input.
  bool GetVarint(std::uint64_t* value);
  bool GetFixed64(std::uint64_t* value);
  bool GetBytes(std::size_t n, std::string_view* out);

  bool GetTag(std::uint32_t* field, WireType* type);

  // Reads the payload for a tag of the given wire type (used both for known
  // fields and for skipping unknown ones).
  bool SkipValue(WireType type);
  bool GetLengthDelimited(std::string_view* out);

  static std::int64_t ZigZagDecode(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace zht::wire
