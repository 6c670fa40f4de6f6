// Byte-buffer utilities shared by codecs, the MDL interpreters and the
// simulated network.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace starlink {

/// The universal wire representation: what legacy stacks emit and what the
/// generic MDL parsers consume.
using Bytes = std::vector<std::uint8_t>;

/// The largest message accepted from the wire: the binary MDL codec rejects
/// longer input and the OS transport closes a TCP connection announcing a
/// longer frame (net.frame-oversize).
inline constexpr std::size_t kMaxWireMessageBytes = 1 << 20;  // 1 MiB

/// Builds a byte buffer from a string (no terminator).
Bytes toBytes(std::string_view s);

/// Interprets a byte buffer as text (bytes are copied verbatim).
std::string toString(const Bytes& b);

/// Renders a buffer as lowercase hex, two chars per byte ("dead beef" style,
/// no separators). Used by diagnostics and tests.
std::string toHex(const Bytes& b);

/// Parses a hex string produced by toHex(); throws SpecError on odd length or
/// non-hex characters.
Bytes fromHex(std::string_view hex);

/// Appends a big-endian unsigned integer occupying `bytes` bytes.
void appendUint(Bytes& out, std::uint64_t value, int bytes);

/// Reads a big-endian unsigned integer of `bytes` bytes at `offset`.
/// Returns false if the buffer is too short.
bool readUint(const Bytes& in, std::size_t offset, int bytes, std::uint64_t& value);

}  // namespace starlink
