// Typed field content for abstract messages (paper section III-A).
//
// A Value is what a primitive field carries between a generic parser and a
// generic composer. The type set covers what discovery/middleware protocol
// fields need: integers (all wire widths normalise to Int), text, raw bytes,
// booleans and doubles. Everything is convertible to/from a canonical text
// form because translation logic and the XML projection move content as text.
//
// String and Bytes content comes in two representations: owning
// (std::string / Bytes) and borrowed views (std::string_view / ByteView)
// over a session-scoped RxArena. type() and the accessors erase the
// difference -- a view-backed Value behaves exactly like an owning one --
// so the zero-copy parse path and the copying interpreter oracles produce
// values that compare equal. Views are only valid while their arena is,
// which is why nothing keeps an arena-backed message past the session
// boundary: the engine's per-state instance stores are cleared before the
// arena resets, and the evidence stores (session history, spans, flight
// recorder) keep counters, text and wire bytes, never Values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.hpp"

namespace starlink {

enum class ValueType { Empty, Int, String, Bytes, Bool, Double };

const char* valueTypeName(ValueType type);
std::optional<ValueType> valueTypeFromName(std::string_view name);

/// A borrowed span of raw bytes (the Bytes analogue of std::string_view).
struct ByteView {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
};

class Value {
public:
    Value() = default;
    explicit Value(std::int64_t v) : data_(v) {}
    explicit Value(std::string v) : data_(std::move(v)) {}
    explicit Value(Bytes v) : data_(std::move(v)) {}
    explicit Value(bool v) : data_(v) {}
    explicit Value(double v) : data_(v) {}

    static Value ofInt(std::int64_t v) { return Value(v); }
    static Value ofString(std::string v) { return Value(std::move(v)); }
    static Value ofBytes(Bytes v) { return Value(std::move(v)); }
    static Value ofBool(bool v) { return Value(v); }
    static Value ofDouble(double v) { return Value(v); }

    /// Borrowed content: type() reports String/Bytes, no heap allocation.
    /// The caller guarantees the referenced storage outlives the Value.
    static Value ofView(std::string_view v) {
        Value out;
        out.data_ = v;
        return out;
    }
    static Value ofByteView(ByteView v) {
        Value out;
        out.data_ = v;
        return out;
    }

    ValueType type() const;
    bool isEmpty() const { return type() == ValueType::Empty; }

    // Exact accessors: nullopt when the stored type differs. View-backed
    // values answer through their logical type (String/Bytes), copying.
    std::optional<std::int64_t> asInt() const;
    std::optional<std::string> asString() const;
    std::optional<Bytes> asBytes() const;
    std::optional<bool> asBool() const;
    std::optional<double> asDouble() const;

    /// Zero-copy peek at String content (owned or view); nullopt otherwise.
    std::optional<std::string_view> stringContent() const;
    /// Zero-copy peek at Bytes content (owned or view); nullopt otherwise.
    std::optional<ByteView> bytesContent() const;

    /// Canonical text form: Int -> decimal, Bytes -> hex, Bool -> true/false,
    /// Double -> shortest round-trippable, Empty -> "".
    std::string toText() const;

    /// Parses the canonical text form back into a Value of the given type;
    /// nullopt when the text does not fit the type.
    static std::optional<Value> fromText(ValueType type, std::string_view text);

    /// Coerces this value to another type where a natural conversion exists
    /// (Int<->String decimal, String<->Bytes verbatim, Int<->Bool, ...).
    /// nullopt when no lossless-ish conversion applies.
    std::optional<Value> coerceTo(ValueType target) const;

    /// Content equality: a view-backed value equals an owning value with the
    /// same bytes (the differential fuzz harness compares plan output, which
    /// may borrow, against interpreter output, which always owns).
    bool operator==(const Value& other) const;

private:
    std::variant<std::monostate, std::int64_t, std::string, Bytes, bool, double,
                 std::string_view, ByteView>
        data_;
};

}  // namespace starlink
