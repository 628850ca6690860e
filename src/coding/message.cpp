#include "coding/message.hpp"

#include <cstring>

namespace fairshare::coding {

namespace {

void put_le64(std::byte* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[i] = std::byte{static_cast<std::uint8_t>(v >> (8 * i))};
}

std::uint64_t get_le64(const std::byte* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::vector<std::byte> EncodedMessage::serialize() const {
  std::vector<std::byte> wire(wire_size());
  put_le64(wire.data(), file_id);
  put_le64(wire.data() + 8, message_id);
  std::memcpy(wire.data() + 16, payload.data(), payload.size());
  return wire;
}

std::optional<EncodedMessage> EncodedMessage::deserialize(
    std::span<const std::byte> wire) {
  if (wire.size() < 16) return std::nullopt;
  EncodedMessage msg;
  msg.file_id = get_le64(wire.data());
  msg.message_id = get_le64(wire.data() + 8);
  msg.payload.assign(wire.begin() + 16, wire.end());
  return msg;
}

crypto::Md5Digest EncodedMessage::digest() const {
  crypto::Md5 h;
  std::byte header[16];
  put_le64(header, file_id);
  put_le64(header + 8, message_id);
  h.update(std::span<const std::byte>(header, 16));
  h.update(std::span<const std::byte>(payload));
  return h.finish();
}

bool authentic(const FileInfo& info, const EncodedMessage& msg,
               bool require_digests) {
  const auto it = info.message_digests.find(msg.message_id);
  if (it == info.message_digests.end()) return !require_digests;
  return msg.digest() == it->second;
}

}  // namespace fairshare::coding
