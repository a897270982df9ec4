// Message payloads.
//
// The network layer is payload-agnostic: algorithms define their own payload
// structs derived from Payload and downcast on receipt with payload_cast /
// payload_as. A small virtual hierarchy (instead of templates) keeps the
// network non-generic and the layering strict.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>

#include "util/check.h"

namespace abe {

class Payload {
 public:
  virtual ~Payload() = default;

  // Deep copy; channels clone when a payload must be duplicated (e.g. ARQ
  // retransmission keeps the original).
  virtual std::unique_ptr<Payload> clone() const = 0;

  // Human-readable form for traces and debugging.
  virtual std::string describe() const = 0;
};

using PayloadPtr = std::unique_ptr<const Payload>;

// Checked downcast: returns nullptr when the payload is a different type.
// Payload types must be final: a final T has no subclasses, so the payload is
// a T exactly when its dynamic type is T, and one type_info compare plus a
// static_cast replaces the hierarchy walk of dynamic_cast.
template <typename T>
const T* payload_cast(const Payload& p) {
  static_assert(std::is_final_v<T>, "payload types must be final");
  return typeid(p) == typeid(T) ? static_cast<const T*>(&p) : nullptr;
}

// Asserting downcast: aborts with the payload description on type mismatch.
template <typename T>
const T& payload_as(const Payload& p) {
  const T* typed = payload_cast<T>(p);
  ABE_CHECK(typed != nullptr)
      << "payload type mismatch; got " << p.describe();
  return *typed;
}

// Generic payload carrying one integer; handy for tests and simple apps.
class IntPayload final : public Payload {
 public:
  explicit IntPayload(std::int64_t value) : value_(value) {}
  std::int64_t value() const { return value_; }
  std::unique_ptr<Payload> clone() const override;
  std::string describe() const override;

 private:
  std::int64_t value_;
};

// Generic payload carrying a string tag; handy for tests.
class TextPayload final : public Payload {
 public:
  explicit TextPayload(std::string text) : text_(std::move(text)) {}
  const std::string& text() const { return text_; }
  std::unique_ptr<Payload> clone() const override;
  std::string describe() const override;

 private:
  std::string text_;
};

}  // namespace abe
