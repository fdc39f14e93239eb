#include "jxta/message.h"

namespace p2p::jxta {

Message& Message::add(MessageElement element) {
  elements_.push_back(std::move(element));
  return *this;
}

Message& Message::add_bytes(std::string name, util::Bytes body,
                            std::string mime) {
  return add(MessageElement{std::move(name), std::move(mime),
                            std::move(body)});
}

Message& Message::add_string(std::string name, std::string_view value) {
  return add(MessageElement{std::move(name), "text/plain",
                            util::to_bytes(value)});
}

Message& Message::set_bytes(std::string name, util::Bytes body,
                            std::string mime) {
  for (auto& e : elements_) {
    if (e.name == name) {
      e.mime = std::move(mime);
      e.body = std::move(body);
      return *this;
    }
  }
  return add_bytes(std::move(name), std::move(body), std::move(mime));
}

const MessageElement* Message::find(std::string_view name) const {
  for (const auto& e : elements_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::optional<std::string> Message::get_string(std::string_view name) const {
  const MessageElement* e = find(name);
  if (e == nullptr) return std::nullopt;
  return util::to_string(e->body);
}

std::optional<util::Bytes> Message::get_bytes(std::string_view name) const {
  const MessageElement* e = find(name);
  if (e == nullptr) return std::nullopt;
  return e->body;
}

std::size_t Message::body_size() const {
  std::size_t total = 0;
  for (const auto& e : elements_) total += e.body.size();
  return total;
}

Message Message::dup() const {
  Message copy;  // fresh id
  copy.elements_ = elements_;
  return copy;
}

util::Bytes Message::serialize() const {
  util::ByteWriter w;
  w.write_uuid(id_);
  w.write_varint(elements_.size());
  for (const auto& e : elements_) {
    w.write_string(e.name);
    w.write_string(e.mime);
    w.write_bytes(e.body);
  }
  return w.take();
}

std::optional<Message> Message::try_deserialize(
    std::span<const std::uint8_t> data, const util::DecodeLimits& limits,
    util::DecodeError* error) {
  util::ByteReader r(data, limits);
  util::Uuid id;
  std::uint64_t count = 0;
  if (!r.try_read_uuid(id) || !r.try_read_count(count)) {
    if (error != nullptr) *error = r.error();
    return std::nullopt;
  }
  Message m{id};
  for (std::uint64_t i = 0; i < count; ++i) {
    MessageElement e;
    if (!r.try_read_string(e.name) || !r.try_read_string(e.mime) ||
        !r.try_read_bytes(e.body)) {
      if (error != nullptr) *error = r.error();
      return std::nullopt;
    }
    m.add(std::move(e));
  }
  return m;
}

Message Message::deserialize(std::span<const std::uint8_t> data) {
  util::DecodeError error = util::DecodeError::kNone;
  auto m = try_deserialize(data, {}, &error);
  if (!m) {
    throw util::ParseError("jxta::Message: " +
                           std::string(util::to_string(error)));
  }
  return std::move(*m);
}

}  // namespace p2p::jxta
