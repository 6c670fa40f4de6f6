#include "core/message/value.hpp"

#include <cstring>
#include <sstream>

#include "common/strings.hpp"

namespace starlink {

const char* valueTypeName(ValueType type) {
    switch (type) {
        case ValueType::Empty: return "Empty";
        case ValueType::Int: return "Int";
        case ValueType::String: return "String";
        case ValueType::Bytes: return "Bytes";
        case ValueType::Bool: return "Bool";
        case ValueType::Double: return "Double";
    }
    return "?";
}

std::optional<ValueType> valueTypeFromName(std::string_view name) {
    if (name == "Empty") return ValueType::Empty;
    if (name == "Int" || name == "Integer") return ValueType::Int;
    if (name == "String") return ValueType::String;
    if (name == "Bytes") return ValueType::Bytes;
    if (name == "Bool" || name == "Boolean") return ValueType::Bool;
    if (name == "Double" || name == "Float") return ValueType::Double;
    return std::nullopt;
}

ValueType Value::type() const {
    switch (data_.index()) {
        case 0: return ValueType::Empty;
        case 1: return ValueType::Int;
        case 2: return ValueType::String;
        case 3: return ValueType::Bytes;
        case 4: return ValueType::Bool;
        case 5: return ValueType::Double;
        case 6: return ValueType::String;  // borrowed text
        case 7: return ValueType::Bytes;   // borrowed bytes
    }
    return ValueType::Empty;
}

std::optional<std::int64_t> Value::asInt() const {
    if (const auto* v = std::get_if<std::int64_t>(&data_)) return *v;
    return std::nullopt;
}

std::optional<std::string> Value::asString() const {
    if (const auto* v = std::get_if<std::string>(&data_)) return *v;
    if (const auto* v = std::get_if<std::string_view>(&data_)) return std::string(*v);
    return std::nullopt;
}

std::optional<Bytes> Value::asBytes() const {
    if (const auto* v = std::get_if<Bytes>(&data_)) return *v;
    if (const auto* v = std::get_if<ByteView>(&data_)) return Bytes(v->data, v->data + v->size);
    return std::nullopt;
}

std::optional<bool> Value::asBool() const {
    if (const auto* v = std::get_if<bool>(&data_)) return *v;
    return std::nullopt;
}

std::optional<double> Value::asDouble() const {
    if (const auto* v = std::get_if<double>(&data_)) return *v;
    return std::nullopt;
}

std::optional<std::string_view> Value::stringContent() const {
    if (const auto* v = std::get_if<std::string>(&data_)) return std::string_view(*v);
    if (const auto* v = std::get_if<std::string_view>(&data_)) return *v;
    return std::nullopt;
}

std::optional<ByteView> Value::bytesContent() const {
    if (const auto* v = std::get_if<Bytes>(&data_)) return ByteView{v->data(), v->size()};
    if (const auto* v = std::get_if<ByteView>(&data_)) return *v;
    return std::nullopt;
}

std::string Value::toText() const {
    switch (type()) {
        case ValueType::Empty: return "";
        case ValueType::Int: return std::to_string(*asInt());
        case ValueType::String: return std::string(*stringContent());
        case ValueType::Bytes: {
            const ByteView view = *bytesContent();
            return toHex(Bytes(view.data, view.data + view.size));
        }
        case ValueType::Bool: return *asBool() ? "true" : "false";
        case ValueType::Double: {
            std::ostringstream out;
            out << *asDouble();
            return out.str();
        }
    }
    return "";
}

std::optional<Value> Value::fromText(ValueType type, std::string_view text) {
    switch (type) {
        case ValueType::Empty:
            // Built in place: moving an empty Value into the optional makes
            // GCC warn about the variant's other alternatives.
            return std::make_optional<Value>();
        case ValueType::Int: {
            const auto v = parseInt(text);
            if (!v) return std::nullopt;
            return Value::ofInt(*v);
        }
        case ValueType::String:
            return Value::ofString(std::string(text));
        case ValueType::Bytes: {
            try {
                return Value::ofBytes(fromHex(text));
            } catch (...) {
                return std::nullopt;
            }
        }
        case ValueType::Bool:
            if (text == "true" || text == "1") return Value::ofBool(true);
            if (text == "false" || text == "0") return Value::ofBool(false);
            return std::nullopt;
        case ValueType::Double: {
            try {
                std::size_t consumed = 0;
                const double v = std::stod(std::string(text), &consumed);
                if (consumed != text.size()) return std::nullopt;
                return Value::ofDouble(v);
            } catch (...) {
                return std::nullopt;
            }
        }
    }
    return std::nullopt;
}

std::optional<Value> Value::coerceTo(ValueType target) const {
    if (type() == target) return *this;
    switch (target) {
        case ValueType::String:
            return Value::ofString(toText());
        case ValueType::Int: {
            if (type() == ValueType::String) {
                const auto v = parseInt(*stringContent());
                if (!v) return std::nullopt;
                return Value::ofInt(*v);
            }
            if (type() == ValueType::Bool) return Value::ofInt(*asBool() ? 1 : 0);
            if (type() == ValueType::Double) {
                return Value::ofInt(static_cast<std::int64_t>(*asDouble()));
            }
            return std::nullopt;
        }
        case ValueType::Bytes: {
            if (type() == ValueType::String) return Value::ofBytes(toBytes(*asString()));
            return std::nullopt;
        }
        case ValueType::Bool: {
            if (type() == ValueType::Int) return Value::ofBool(*asInt() != 0);
            if (type() == ValueType::String) return fromText(ValueType::Bool, *stringContent());
            return std::nullopt;
        }
        case ValueType::Double: {
            if (type() == ValueType::Int) return Value::ofDouble(static_cast<double>(*asInt()));
            if (type() == ValueType::String) return fromText(ValueType::Double, *stringContent());
            return std::nullopt;
        }
        case ValueType::Empty:
            return std::make_optional<Value>();
    }
    return std::nullopt;
}

bool Value::operator==(const Value& other) const {
    const ValueType kind = type();
    if (kind != other.type()) return false;
    switch (kind) {
        case ValueType::Empty: return true;
        case ValueType::Int: return *asInt() == *other.asInt();
        case ValueType::Bool: return *asBool() == *other.asBool();
        case ValueType::Double: return *asDouble() == *other.asDouble();
        case ValueType::String: return *stringContent() == *other.stringContent();
        case ValueType::Bytes: {
            const ByteView a = *bytesContent();
            const ByteView b = *other.bytesContent();
            if (a.size != b.size) return false;
            return a.size == 0 || std::memcmp(a.data, b.data, a.size) == 0;
        }
    }
    return false;
}

}  // namespace starlink
