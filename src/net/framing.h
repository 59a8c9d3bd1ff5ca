// Stream framing for TCP: [length u32 LE][payload]. UDP datagrams carry the
// payload bare (datagram boundaries are the frames).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace zht {

constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB sanity cap

inline std::string FrameMessage(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size());
  std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  out.append(payload.data(), payload.size());
  return out;
}

// Frames an envelope (Request/Response) in one allocation: the length
// prefix, then the message encoded in place. `out` may already hold earlier
// frames (a pipelined burst).
template <typename Message>
void AppendFramed(const Message& message, std::string* out) {
  const std::size_t n = message.EncodedSize();
  out->reserve(out->size() + 4 + n);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((n >> (8 * i)) & 0xff));
  }
  message.EncodeTo(out);
}

template <typename Message>
std::string FrameEncoded(const Message& message) {
  std::string out;
  AppendFramed(message, &out);
  return out;
}

// Cursor-based frame extractor: reads the next complete frame at *offset
// and advances *offset past it, WITHOUT mutating the buffer. Draining a
// pipelined burst is O(bytes) total — the caller compacts the consumed
// prefix once at the end (vs an erase-per-frame front shift, which made a
// k-frame burst O(bytes × k)). The returned view aliases `buffer`: it is
// invalidated by any mutation of the underlying string, so copy out (or
// fully decode) before appending/compacting.
// Sets *malformed if the stream is unrecoverable (oversized frame).
inline std::optional<std::string_view> ExtractFrameAt(std::string_view buffer,
                                                      std::size_t* offset,
                                                      bool* malformed) {
  *malformed = false;
  if (buffer.size() < *offset + 4) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(buffer[*offset + i]))
         << (8 * i);
  }
  if (n > kMaxFrameBytes) {
    *malformed = true;
    return std::nullopt;
  }
  if (buffer.size() - *offset - 4 < static_cast<std::size_t>(n)) {
    return std::nullopt;
  }
  std::string_view payload = buffer.substr(*offset + 4, n);
  *offset += 4 + static_cast<std::size_t>(n);
  return payload;
}

// Convenience form for callers that extract a frame at a time and want the
// buffer consumed eagerly (one erase per frame — fine for single-response
// reads; hot multi-frame paths use ExtractFrameAt + a single compact).
inline std::optional<std::string> ExtractFrame(std::string& buffer,
                                               bool* malformed) {
  std::size_t offset = 0;
  auto payload = ExtractFrameAt(buffer, &offset, malformed);
  if (!payload) return std::nullopt;
  std::string out(*payload);
  buffer.erase(0, offset);
  return out;
}

}  // namespace zht
