#include "core/mdl/binary_codec.hpp"

#include <cstdint>
#include <map>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "core/mdl/rx_arena.hpp"

namespace starlink::mdl {

namespace {

// Hard caps against hostile wire input. A datagram larger than any legitimate
// protocol message, a parse yielding absurdly many fields, or a length field
// implying a gigantic body is rejected up front -- before unbounded work, and
// before the `* 8` below can overflow int64 (undefined behaviour). The caps
// are identical in the plan and interpreter paths so the differential fuzzer
// sees byte-identical accept/reject decisions.
constexpr std::int64_t kMaxFieldBytes = 1 << 20;    // per length-field value
constexpr std::size_t kMaxParsedFields = 4096;

struct ParsedField {
    std::string label;
    Value value;
    std::optional<int> lengthBits;
};

/// Plan path: one parsed slot per flat field position (header first, then
/// the selected message's body).
struct PlanSlot {
    const PlanField* field = nullptr;
    Value value;
    std::optional<int> lengthBits;
};

}  // namespace

BinaryCodec::BinaryCodec(const MdlDocument& doc, std::shared_ptr<MarshallerRegistry> registry)
    : doc_(doc), registry_(std::move(registry)) {
    if (doc_.kind() != MdlKind::Binary) {
        throw SpecError(errc::ErrorCode::MdlInvalid,
                        "BinaryCodec: MDL document '" + doc_.protocol() + "' is not binary");
    }
    // Compiling the plan resolves every marshaller eagerly, so a typo in
    // <Types> fails at load time, not mid-parse (same contract as before).
    plan_ = CodecPlan::compile(doc_, *registry_);
}

// ---------------------------------------------------------------------------
// Plan path: flat execution of the compiled plan.

std::optional<AbstractMessage> BinaryCodec::parse(const Bytes& data, RxArena* arena,
                                                  std::string* error) const {
    auto fail = [error](const std::string& why) -> std::optional<AbstractMessage> {
        if (error != nullptr) *error = why;
        return std::nullopt;
    };

    if (data.size() > kMaxWireMessageBytes) {
        return fail("[codec.message-too-large] " + std::to_string(data.size()) +
                    " bytes exceed the " + std::to_string(kMaxWireMessageBytes) +
                    "-byte message cap");
    }

    // With an arena: one copy of the datagram, then byte-aligned raw reads
    // (String/Bytes marshallers) become views into it. The bit reader still
    // walks `data`; byte offsets are identical in both buffers.
    const char* viewBase = nullptr;
    if (arena != nullptr) viewBase = arena->store(data).data();

    BitReader reader(data);
    std::vector<PlanSlot> parsed;
    parsed.reserve(plan_.header().size() + 8);

    auto parseFields = [&](const std::vector<PlanField>& fields, std::string& why) -> bool {
        for (const PlanField& pf : fields) {
            const FieldSpec& spec = *pf.spec;
            std::optional<int> lengthBits;
            switch (spec.length) {
                case FieldSpec::Length::Bits:
                    lengthBits = spec.bits;
                    break;
                case FieldSpec::Length::FieldRef: {
                    // Backward reference, resolved to a flat index at compile.
                    const auto bytes =
                        parsed[static_cast<std::size_t>(pf.refIndex)].value.coerceTo(
                            ValueType::Int);
                    if (!bytes) {
                        why = "length field '" + spec.ref + "' is not numeric";
                        return false;
                    }
                    const std::int64_t lengthBytes = *bytes->asInt();
                    if (lengthBytes < 0 || lengthBytes > kMaxFieldBytes) {
                        why = "[codec.length-overflow] length field '" + spec.ref +
                              "' implies " + std::to_string(lengthBytes) +
                              " bytes, beyond the " + std::to_string(kMaxFieldBytes) +
                              "-byte field cap";
                        return false;
                    }
                    lengthBits = static_cast<int>(lengthBytes * 8);
                    break;
                }
                case FieldSpec::Length::Auto:
                    lengthBits = std::nullopt;
                    break;
                default:
                    why = "text-dialect length in binary MDL";
                    return false;
            }
            std::optional<Value> value;
            if (lengthBits && *lengthBits == 0) {
                // Zero-length field (e.g. empty string with zero length prefix).
                value = Value::ofString("");
            } else if (viewBase != nullptr && pf.rawKind != RawKind::None && lengthBits &&
                       *lengthBits % 8 == 0) {
                // Verbatim byte copy: borrow from the arena instead of
                // allocating. Falls back to the marshaller when the cursor is
                // not byte-aligned (same accept/reject verdict either way).
                const std::size_t count = static_cast<std::size_t>(*lengthBits / 8);
                if (const auto offset = reader.takeByteSpan(count)) {
                    value = pf.rawKind == RawKind::Text
                                ? Value::ofView(std::string_view(viewBase + *offset, count))
                                : Value::ofByteView(ByteView{
                                      reinterpret_cast<const std::uint8_t*>(viewBase) + *offset,
                                      count});
                } else if (reader.positionBits() % 8 != 0) {
                    value = pf.marshaller->read(reader, lengthBits);
                }
            } else {
                value = pf.marshaller->read(reader, lengthBits);
            }
            if (!value) {
                why = "field '" + spec.label + "' does not decode";
                return false;
            }
            parsed.push_back({&pf, std::move(*value), lengthBits});
            if (parsed.size() > kMaxParsedFields) {
                why = "[codec.field-limit] more than " +
                      std::to_string(kMaxParsedFields) + " parsed fields";
                return false;
            }
        }
        return true;
    };

    std::string why;
    if (!parseFields(plan_.header(), why)) return fail("header: " + why);

    // Rule evaluation selects the message body. Rule labels are pre-resolved
    // to header indices, so the probe is a direct slot read.
    const int selectedIndex = plan_.selectMessage(
        [&parsed, this](int id, const std::string&) -> std::optional<std::string> {
            const int headerIndex = plan_.ruleLabelHeaderIndex(id);
            if (headerIndex < 0) return std::nullopt;
            return parsed[static_cast<std::size_t>(headerIndex)].value.toText();
        });
    if (selectedIndex < 0) return fail("no message rule matches the parsed header");
    const MessagePlan& mp = plan_.messages()[static_cast<std::size_t>(selectedIndex)];

    if (!parseFields(mp.body, why)) {
        return fail("message '" + mp.spec->type + "': " + why);
    }
    if (reader.remainingBits() >= 8) {
        return fail("message '" + mp.spec->type + "': " +
                    std::to_string(reader.remainingBits()) + " trailing bits");
    }

    AbstractMessage message(mp.spec->type);
    message.fields().reserve(parsed.size());
    for (PlanSlot& slot : parsed) {
        message.addField(Field::primitive(slot.field->spec->label, slot.field->marshallerName,
                                          std::move(slot.value), slot.lengthBits));
    }
    return message;
}

Bytes BinaryCodec::compose(const AbstractMessage& message) const {
    Bytes out;
    composeInto(message, out);
    return out;
}

void BinaryCodec::composeInto(const AbstractMessage& message, Bytes& out) const {
    const MessagePlan* mp = plan_.planFor(message.type());
    if (mp == nullptr) {
        out.clear();
        throw SpecError(errc::ErrorCode::CodecMessageUnknown,
                        "BinaryCodec: MDL '" + doc_.protocol() + "' does not define message '" +
                        message.type() + "'");
    }

    const std::vector<PlanField>& header = plan_.header();
    const std::size_t headerCount = header.size();
    const std::size_t total = headerCount + mp->body.size();
    auto flatField = [&](std::size_t i) -> const PlanField& {
        return i < headerCount ? header[i] : mp->body[i - headerCount];
    };

    // Pass 1: decide every field's value, into slots indexed by flat
    // position instead of a label-keyed map.
    std::vector<Value> values(total);
    std::vector<bool> has(total, false);

    // First, materialise all plain values so length derivations can see them.
    for (std::size_t i = 0; i < total; ++i) {
        const PlanField& pf = flatField(i);
        if (const auto provided = message.value(pf.spec->label)) {
            values[i] = *provided;
            has[i] = true;
        } else if (pf.defaultValue) {
            values[i] = *pf.defaultValue;
            has[i] = true;
        }
    }
    // Rule fields are forced to the rule value.
    if (mp->ruleFlatIndex >= 0) {
        values[static_cast<std::size_t>(mp->ruleFlatIndex)] = *mp->ruleValue;
        has[static_cast<std::size_t>(mp->ruleFlatIndex)] = true;
    }
    // Derived lengths override anything supplied.
    for (std::size_t i = 0; i < total; ++i) {
        if (const int target = mp->fLengthTarget[i]; target >= 0) {
            const PlanField& tf = flatField(static_cast<std::size_t>(target));
            const Value targetValue = has[static_cast<std::size_t>(target)]
                                          ? values[static_cast<std::size_t>(target)]
                                          : Value::ofString("");
            values[i] = Value::ofInt(tf.marshaller->encodedBits(targetValue, std::nullopt) / 8);
            has[i] = true;
        }
        if (const int sized = mp->lengthFor[i]; sized >= 0) {
            const PlanField& sf = flatField(static_cast<std::size_t>(sized));
            const Value sizedValue = has[static_cast<std::size_t>(sized)]
                                         ? values[static_cast<std::size_t>(sized)]
                                         : Value::ofString("");
            values[i] = Value::ofInt(sf.marshaller->encodedBits(sizedValue, std::nullopt) / 8);
            has[i] = true;
        }
    }

    // Mandatory-field enforcement: a bridge that fails to fill a mandatory
    // field has a broken translation spec.
    for (std::size_t m = 0; m < mp->mandatory.size(); ++m) {
        const int idx = mp->mandatoryFlat[m];
        if (idx < 0 || !has[static_cast<std::size_t>(idx)]) {
            out.clear();
            throw SpecError(errc::ErrorCode::CodecMandatoryMissing,
                        "BinaryCodec: mandatory field '" + mp->mandatory[m] +
                            "' of message '" + message.type() + "' has no value");
        }
    }

    // Pass 2: write.
    BitWriter writer(std::move(out));
    std::optional<std::pair<std::size_t, int>> msgLengthPatch;  // bit offset, bit count
    for (std::size_t i = 0; i < total; ++i) {
        const PlanField& pf = flatField(i);
        const FieldSpec& spec = *pf.spec;

        std::optional<int> lengthBits;
        switch (spec.length) {
            case FieldSpec::Length::Bits:
                lengthBits = spec.bits;
                break;
            case FieldSpec::Length::FieldRef: {
                const auto bytes =
                    values[static_cast<std::size_t>(pf.refIndex)].coerceTo(ValueType::Int);
                const std::int64_t lengthBytes = bytes ? *bytes->asInt() : -1;
                if (lengthBytes < 0 || lengthBytes > kMaxFieldBytes) {
                    throw SpecError(errc::ErrorCode::CodecLengthOverflow,
                                    "BinaryCodec: length field '" + spec.ref +
                                        "' implies " + std::to_string(lengthBytes) +
                                        " bytes in compose of '" + message.type() + "'");
                }
                lengthBits = static_cast<int>(lengthBytes * 8);
                break;
            }
            case FieldSpec::Length::Auto:
                lengthBits = std::nullopt;
                break;
            default:
                throw SpecError(errc::ErrorCode::CodecCompose,
                        "BinaryCodec: text-dialect field '" + spec.label +
                                "' in binary compose");
        }

        if (pf.isMsgLength) {
            // Write a placeholder and remember where to backpatch.
            if (!lengthBits) {
                throw SpecError(errc::ErrorCode::CodecCompose,
                        "BinaryCodec: f-msglength field '" + spec.label +
                                "' must have a literal bit length");
            }
            msgLengthPatch = {writer.positionBits(), *lengthBits};
            writer.writeBits(0, *lengthBits);
            continue;
        }

        Value value = has[i] ? values[i] : Value();
        if (value.isEmpty()) {
            // Unsupplied optional field: zero integer / empty string.
            value = pf.emptyFill;
        }
        if (lengthBits && *lengthBits == 0) continue;  // zero-length field: nothing on the wire
        pf.marshaller->write(writer, value, lengthBits);
    }

    if (msgLengthPatch) {
        const std::size_t totalBytes = (writer.positionBits() + 7) / 8;
        writer.patchBits(msgLengthPatch->first, totalBytes, msgLengthPatch->second);
    }
    out = writer.take();
}

// ---------------------------------------------------------------------------
// Pre-plan interpreter: re-derives lengths, marshallers and rule dispatch
// from the document per message. Kept verbatim as the reference
// implementation the compiled plan must match bit-for-bit.

std::optional<AbstractMessage> BinaryCodec::parseInterpreted(const Bytes& data,
                                                             std::string* error) const {
    auto fail = [error](const std::string& why) -> std::optional<AbstractMessage> {
        if (error != nullptr) *error = why;
        return std::nullopt;
    };

    if (data.size() > kMaxWireMessageBytes) {
        return fail("[codec.message-too-large] " + std::to_string(data.size()) +
                    " bytes exceed the " + std::to_string(kMaxWireMessageBytes) +
                    "-byte message cap");
    }

    BitReader reader(data);
    std::vector<ParsedField> parsed;
    auto lookup = [&parsed](const std::string& label) -> const ParsedField* {
        for (const ParsedField& f : parsed) {
            if (f.label == label) return &f;
        }
        return nullptr;
    };

    auto parseFields = [&](const std::vector<FieldSpec>& specs,
                           std::string& why) -> bool {
        for (const FieldSpec& spec : specs) {
            std::optional<int> lengthBits;
            switch (spec.length) {
                case FieldSpec::Length::Bits:
                    lengthBits = spec.bits;
                    break;
                case FieldSpec::Length::FieldRef: {
                    const ParsedField* source = lookup(spec.ref);
                    if (source == nullptr) {
                        why = "length field '" + spec.ref + "' not parsed before '" +
                              spec.label + "'";
                        return false;
                    }
                    const auto bytes = source->value.coerceTo(ValueType::Int);
                    if (!bytes) {
                        why = "length field '" + spec.ref + "' is not numeric";
                        return false;
                    }
                    const std::int64_t lengthBytes = *bytes->asInt();
                    if (lengthBytes < 0 || lengthBytes > kMaxFieldBytes) {
                        why = "[codec.length-overflow] length field '" + spec.ref +
                              "' implies " + std::to_string(lengthBytes) +
                              " bytes, beyond the " + std::to_string(kMaxFieldBytes) +
                              "-byte field cap";
                        return false;
                    }
                    lengthBits = static_cast<int>(lengthBytes * 8);
                    break;
                }
                case FieldSpec::Length::Auto:
                    lengthBits = std::nullopt;
                    break;
                default:
                    why = "text-dialect length in binary MDL";
                    return false;
            }
            const Marshaller* marshaller = registry_->find(doc_.marshallerFor(spec));
            std::optional<Value> value;
            if (lengthBits && *lengthBits == 0) {
                // Zero-length field (e.g. empty string with zero length prefix).
                value = Value::ofString("");
            } else {
                value = marshaller->read(reader, lengthBits);
            }
            if (!value) {
                why = "field '" + spec.label + "' does not decode";
                return false;
            }
            parsed.push_back({spec.label, std::move(*value), lengthBits});
            if (parsed.size() > kMaxParsedFields) {
                why = "[codec.field-limit] more than " +
                      std::to_string(kMaxParsedFields) + " parsed fields";
                return false;
            }
        }
        return true;
    };

    std::string why;
    if (!parseFields(doc_.header().fields, why)) return fail("header: " + why);

    // Rule evaluation selects the message body.
    const MessageSpec* selected = nullptr;
    for (const MessageSpec& candidate : doc_.messages()) {
        if (!candidate.rule) {
            if (selected == nullptr) selected = &candidate;  // unruled fallback
            continue;
        }
        const ParsedField* field = lookup(candidate.rule->field);
        if (field != nullptr && field->value.toText() == candidate.rule->value) {
            selected = &candidate;
            break;
        }
    }
    if (selected == nullptr) return fail("no message rule matches the parsed header");

    if (!parseFields(selected->fields, why)) {
        return fail("message '" + selected->type + "': " + why);
    }
    if (reader.remainingBits() >= 8) {
        return fail("message '" + selected->type + "': " +
                    std::to_string(reader.remainingBits()) + " trailing bits");
    }

    AbstractMessage message(selected->type);
    for (ParsedField& f : parsed) {
        const FieldSpec* spec = nullptr;
        for (const FieldSpec& s : doc_.header().fields) {
            if (s.label == f.label) spec = &s;
        }
        for (const FieldSpec& s : selected->fields) {
            if (s.label == f.label) spec = &s;
        }
        const std::string typeName =
            spec != nullptr ? doc_.marshallerFor(*spec) : std::string("String");
        message.addField(Field::primitive(f.label, typeName, std::move(f.value), f.lengthBits));
    }
    return message;
}

Bytes BinaryCodec::composeInterpreted(const AbstractMessage& message) const {
    const MessageSpec* spec = doc_.message(message.type());
    if (spec == nullptr) {
        throw SpecError(errc::ErrorCode::CodecMessageUnknown,
                        "BinaryCodec: MDL '" + doc_.protocol() + "' does not define message '" +
                        message.type() + "'");
    }

    // Assemble the full field list: header then body.
    std::vector<const FieldSpec*> order;
    for (const FieldSpec& f : doc_.header().fields) order.push_back(&f);
    for (const FieldSpec& f : spec->fields) order.push_back(&f);

    // Which fields serve as the length source of a later field?
    std::map<std::string, const FieldSpec*> lengthSourceOf;  // source label -> sized field
    for (const FieldSpec* f : order) {
        if (f->length == FieldSpec::Length::FieldRef) lengthSourceOf[f->ref] = f;
    }

    // Pass 1: decide every field's value.
    std::map<std::string, Value> values;
    auto typeDefOf = [this](const FieldSpec& f) -> const TypeDef* {
        return doc_.type(f.type.empty() ? f.label : f.type);
    };

    // First, materialise all plain values so length derivations can see them.
    for (const FieldSpec* f : order) {
        const auto provided = message.value(f->label);
        if (provided) {
            values[f->label] = *provided;
        } else if (f->defaultValue) {
            values[f->label] = Value::ofString(*f->defaultValue);
        }
    }
    // Rule fields are forced to the rule value.
    if (spec->rule) {
        values[spec->rule->field] = Value::ofString(spec->rule->value);
    }
    // Derived lengths override anything supplied.
    for (const FieldSpec* f : order) {
        const TypeDef* def = typeDefOf(*f);
        if (def != nullptr && def->function == "f-length") {
            const FieldSpec* target = nullptr;
            for (const FieldSpec* candidate : order) {
                if (candidate->label == def->functionArg) target = candidate;
            }
            if (target == nullptr) {
                throw SpecError(errc::ErrorCode::CodecCompose,
                        "BinaryCodec: f-length target '" + def->functionArg +
                                "' is not a field of message '" + message.type() + "'");
            }
            const Marshaller* m = registry_->find(doc_.marshallerFor(*target));
            const auto it = values.find(target->label);
            const Value targetValue = it == values.end() ? Value::ofString("") : it->second;
            values[f->label] =
                Value::ofInt(m->encodedBits(targetValue, std::nullopt) / 8);
        }
        if (const FieldSpec* sized = lengthSourceOf[f->label]; sized != nullptr) {
            const Marshaller* m = registry_->find(doc_.marshallerFor(*sized));
            const auto it = values.find(sized->label);
            const Value sizedValue = it == values.end() ? Value::ofString("") : it->second;
            values[f->label] = Value::ofInt(m->encodedBits(sizedValue, std::nullopt) / 8);
        }
    }

    // Mandatory-field enforcement: a bridge that fails to fill a mandatory
    // field has a broken translation spec.
    for (const std::string& label : doc_.mandatoryFields(message.type())) {
        if (!values.contains(label)) {
            throw SpecError(errc::ErrorCode::CodecMandatoryMissing,
                        "BinaryCodec: mandatory field '" + label + "' of message '" +
                            message.type() + "' has no value");
        }
    }

    // Pass 2: write.
    BitWriter writer;
    std::optional<std::pair<std::size_t, int>> msgLengthPatch;  // bit offset, bit count
    for (const FieldSpec* f : order) {
        const Marshaller* marshaller = registry_->find(doc_.marshallerFor(*f));
        const TypeDef* def = typeDefOf(*f);

        std::optional<int> lengthBits;
        switch (f->length) {
            case FieldSpec::Length::Bits:
                lengthBits = f->bits;
                break;
            case FieldSpec::Length::FieldRef: {
                const auto it = values.find(f->ref);
                const auto bytes =
                    it != values.end() ? it->second.coerceTo(ValueType::Int) : std::nullopt;
                const std::int64_t lengthBytes = bytes ? *bytes->asInt() : -1;
                if (lengthBytes < 0 || lengthBytes > kMaxFieldBytes) {
                    throw SpecError(errc::ErrorCode::CodecLengthOverflow,
                                    "BinaryCodec: length field '" + f->ref +
                                        "' implies " + std::to_string(lengthBytes) +
                                        " bytes in compose of '" + message.type() + "'");
                }
                lengthBits = static_cast<int>(lengthBytes * 8);
                break;
            }
            case FieldSpec::Length::Auto:
                lengthBits = std::nullopt;
                break;
            default:
                throw SpecError(errc::ErrorCode::CodecCompose,
                        "BinaryCodec: text-dialect field '" + f->label +
                                "' in binary compose");
        }

        if (def != nullptr && def->function == "f-msglength") {
            // Write a placeholder and remember where to backpatch.
            if (!lengthBits) {
                throw SpecError(errc::ErrorCode::CodecCompose,
                        "BinaryCodec: f-msglength field '" + f->label +
                                "' must have a literal bit length");
            }
            msgLengthPatch = {writer.positionBits(), *lengthBits};
            writer.writeBits(0, *lengthBits);
            continue;
        }

        auto it = values.find(f->label);
        Value value = it != values.end() ? it->second : Value();
        if (value.isEmpty()) {
            // Unsupplied optional field: zero integer / empty string.
            const std::string marshallerName = doc_.marshallerFor(*f);
            value = marshallerName == "Integer" || marshallerName == "Int" ||
                            marshallerName == "Bool" || marshallerName == "Boolean"
                        ? Value::ofInt(0)
                        : Value::ofString("");
        }
        if (lengthBits && *lengthBits == 0) continue;  // zero-length field: nothing on the wire
        marshaller->write(writer, value, lengthBits);
    }

    if (msgLengthPatch) {
        const std::size_t totalBytes = (writer.positionBits() + 7) / 8;
        writer.patchBits(msgLengthPatch->first, totalBytes, msgLengthPatch->second);
    }
    return writer.take();
}

}  // namespace starlink::mdl
