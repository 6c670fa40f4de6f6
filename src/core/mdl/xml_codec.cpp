#include "core/mdl/xml_codec.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/mdl/rx_arena.hpp"
#include "xml/dom.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace starlink::mdl {

namespace {

/// Resolves a slash-separated element path below `root`; nullptr when any
/// step is missing.
const xml::Node* resolve(const xml::Node& root, const std::string& path) {
    const xml::Node* current = &root;
    for (const std::string& step : split(path, '/')) {
        if (step.empty()) return nullptr;
        current = current->child(step);
        if (current == nullptr) return nullptr;
    }
    return current;
}

/// Plan path: same walk over pre-split steps, no per-message splitting.
const xml::Node* resolveSteps(const xml::Node& root, const std::vector<std::string>& steps) {
    const xml::Node* current = &root;
    for (const std::string& step : steps) {
        if (step.empty()) return nullptr;
        current = current->child(step);
        if (current == nullptr) return nullptr;
    }
    return current;
}

/// Resolves the path, creating missing elements.
xml::Node* resolveOrCreate(xml::Node& root, const std::string& path) {
    xml::Node* current = &root;
    for (const std::string& step : split(path, '/')) {
        if (step.empty()) return nullptr;
        xml::Node* next = current->child(step);
        current = next != nullptr ? next : &current->appendChild(step);
    }
    return current;
}

xml::Node* resolveOrCreateSteps(xml::Node& root, const std::vector<std::string>& steps) {
    xml::Node* current = &root;
    for (const std::string& step : steps) {
        if (step.empty()) return nullptr;
        xml::Node* next = current->child(step);
        current = next != nullptr ? next : &current->appendChild(step);
    }
    return current;
}

ValueType valueTypeOf(const MdlDocument& doc, const FieldSpec& field) {
    const TypeDef* def = doc.type(field.type.empty() ? field.label : field.type);
    if (def == nullptr) return ValueType::String;
    if (def->marshaller == "Integer" || def->marshaller == "Int") return ValueType::Int;
    if (def->marshaller == "Bool" || def->marshaller == "Boolean") return ValueType::Bool;
    return ValueType::String;
}

}  // namespace

XmlCodec::XmlCodec(const MdlDocument& doc, std::shared_ptr<MarshallerRegistry> registry)
    : doc_(doc), registry_(std::move(registry)) {
    if (doc_.kind() != MdlKind::Xml) {
        throw SpecError(errc::ErrorCode::MdlInvalid,
                        "XmlCodec: MDL document '" + doc_.protocol() + "' is not xml");
    }
    auto check = [](const FieldSpec& field, const std::string& where) {
        if (field.length != FieldSpec::Length::XmlPath &&
            field.length != FieldSpec::Length::Meta) {
            throw SpecError(errc::ErrorCode::MdlInvalid,
                        "XmlCodec " + where + ": field '" + field.label +
                            "' is not an element path");
        }
    };
    for (const FieldSpec& f : doc_.header().fields) check(f, "header");
    for (const MessageSpec& m : doc_.messages()) {
        for (const FieldSpec& f : m.fields) check(f, "message '" + m.type + "'");
    }
    plan_ = CodecPlan::compile(doc_, *registry_);
}

// ---------------------------------------------------------------------------
// Plan path: flat execution of the compiled plan.

std::optional<AbstractMessage> XmlCodec::parse(const Bytes& data, RxArena* arena,
                                               std::string* error) const {
    auto fail = [error](const std::string& why) -> std::optional<AbstractMessage> {
        if (error != nullptr) *error = why;
        return std::nullopt;
    };

    std::unique_ptr<xml::Node> root;
    try {
        root = xml::parse(toString(data));
    } catch (const SpecError& e) {
        return fail(std::string("not well-formed xml: ") + e.what());
    }
    if (root->name() != doc_.header().xmlRoot) {
        return fail("document root <" + root->name() + "> is not <" + doc_.header().xmlRoot +
                    ">");
    }

    std::vector<Field> fields;
    auto parseFields = [&](const std::vector<PlanField>& planFields, bool mandatoryEnforced,
                           std::string& why) -> bool {
        for (const PlanField& pf : planFields) {
            const FieldSpec& spec = *pf.spec;
            if (spec.length != FieldSpec::Length::XmlPath) continue;  // Meta: no wire presence
            const xml::Node* node = resolveSteps(*root, pf.pathSteps);
            if (node == nullptr) {
                if (mandatoryEnforced && spec.mandatory) {
                    why = "mandatory element '" + spec.ref + "' missing";
                    return false;
                }
                continue;
            }
            const std::string text = trim(node->text());
            std::optional<Value> value;
            if (pf.valueType != ValueType::String) value = Value::fromText(pf.valueType, text);
            if (!value && arena != nullptr) {
                // Untyped (or unparsable-as-typed) text: intern into the
                // arena so the Value borrows instead of owning.
                value = Value::ofView(arena->intern(text));
            } else if (!value) {
                value = Value::ofString(text);
            }
            fields.push_back(Field::primitive(spec.label, pf.marshallerName, std::move(*value)));
        }
        return true;
    };

    std::string why;
    parseFields(plan_.header(), /*mandatoryEnforced=*/false, why);

    const int selectedIndex =
        plan_.selectMessage([&fields](int, const std::string& label) -> std::optional<std::string> {
            for (const Field& f : fields) {
                if (f.label() == label) return f.value().toText();
            }
            return std::nullopt;
        });
    if (selectedIndex < 0) return fail("no message rule matches");
    const MessagePlan& mp = plan_.messages()[static_cast<std::size_t>(selectedIndex)];
    if (!parseFields(mp.body, /*mandatoryEnforced=*/true, why)) {
        return fail("message '" + mp.spec->type + "': " + why);
    }

    AbstractMessage message(mp.spec->type);
    message.fields() = std::move(fields);
    return message;
}

Bytes XmlCodec::compose(const AbstractMessage& message) const {
    Bytes out;
    composeInto(message, out);
    return out;
}

void XmlCodec::composeInto(const AbstractMessage& message, Bytes& out) const {
    out.clear();
    const MessagePlan* mp = plan_.planFor(message.type());
    if (mp == nullptr) {
        throw SpecError(errc::ErrorCode::CodecMessageUnknown,
                        "XmlCodec: MDL '" + doc_.protocol() + "' does not define message '" +
                        message.type() + "'");
    }
    for (const std::string& label : mp->mandatory) {
        if (!message.value(label)) {
            throw SpecError(errc::ErrorCode::CodecMandatoryMissing,
                        "XmlCodec: mandatory field '" + label + "' of message '" +
                            message.type() + "' has no value");
        }
    }

    const MessageSpec* spec = mp->spec;
    xml::Node root(doc_.header().xmlRoot);
    auto emit = [&](const std::vector<PlanField>& planFields) {
        for (const PlanField& pf : planFields) {
            const FieldSpec& fieldSpec = *pf.spec;
            if (fieldSpec.length != FieldSpec::Length::XmlPath) continue;
            std::string text;
            if (spec->rule && spec->rule->field == fieldSpec.label) {
                text = spec->rule->value;
            } else if (const auto value = message.value(fieldSpec.label)) {
                text = value->toText();
            } else if (fieldSpec.defaultValue) {
                text = *fieldSpec.defaultValue;
            } else {
                continue;  // optional field the message does not carry
            }
            resolveOrCreateSteps(root, pf.pathSteps)->setText(text);
        }
    };
    emit(plan_.header());
    emit(mp->body);
    const std::string doc = xml::write(root);
    out.assign(doc.begin(), doc.end());
}

// ---------------------------------------------------------------------------
// Pre-plan interpreter: re-derives paths, types and rule dispatch from the
// document per message. Kept verbatim as the reference implementation the
// compiled plan must match byte-for-byte.

std::optional<AbstractMessage> XmlCodec::parseInterpreted(const Bytes& data,
                                                          std::string* error) const {
    auto fail = [error](const std::string& why) -> std::optional<AbstractMessage> {
        if (error != nullptr) *error = why;
        return std::nullopt;
    };

    std::unique_ptr<xml::Node> root;
    try {
        root = xml::parse(toString(data));
    } catch (const SpecError& e) {
        return fail(std::string("not well-formed xml: ") + e.what());
    }
    if (root->name() != doc_.header().xmlRoot) {
        return fail("document root <" + root->name() + "> is not <" + doc_.header().xmlRoot +
                    ">");
    }

    std::vector<Field> fields;
    auto parseFields = [&](const std::vector<FieldSpec>& specs, bool mandatoryEnforced,
                           std::string& why) -> bool {
        for (const FieldSpec& spec : specs) {
            if (spec.length != FieldSpec::Length::XmlPath) continue;  // Meta: no wire presence
            const xml::Node* node = resolve(*root, spec.ref);
            if (node == nullptr) {
                if (mandatoryEnforced && spec.mandatory) {
                    why = "mandatory element '" + spec.ref + "' missing";
                    return false;
                }
                continue;
            }
            const std::string text = trim(node->text());
            const ValueType type = valueTypeOf(doc_, spec);
            const auto value = Value::fromText(type, text);
            fields.push_back(Field::primitive(spec.label, doc_.marshallerFor(spec),
                                              value ? *value : Value::ofString(text)));
        }
        return true;
    };

    std::string why;
    parseFields(doc_.header().fields, /*mandatoryEnforced=*/false, why);

    const MessageSpec* selected = nullptr;
    auto lookup = [&fields](const std::string& label) -> const Field* {
        for (const Field& f : fields) {
            if (f.label() == label) return &f;
        }
        return nullptr;
    };
    for (const MessageSpec& candidate : doc_.messages()) {
        if (!candidate.rule) {
            if (selected == nullptr) selected = &candidate;
            continue;
        }
        const Field* field = lookup(candidate.rule->field);
        if (field != nullptr && field->value().toText() == candidate.rule->value) {
            selected = &candidate;
            break;
        }
    }
    if (selected == nullptr) return fail("no message rule matches");
    if (!parseFields(selected->fields, /*mandatoryEnforced=*/true, why)) {
        return fail("message '" + selected->type + "': " + why);
    }

    AbstractMessage message(selected->type);
    for (Field& f : fields) message.addField(std::move(f));
    return message;
}

Bytes XmlCodec::composeInterpreted(const AbstractMessage& message) const {
    const MessageSpec* spec = doc_.message(message.type());
    if (spec == nullptr) {
        throw SpecError(errc::ErrorCode::CodecMessageUnknown,
                        "XmlCodec: MDL '" + doc_.protocol() + "' does not define message '" +
                        message.type() + "'");
    }
    for (const std::string& label : doc_.mandatoryFields(message.type())) {
        if (!message.value(label)) {
            throw SpecError(errc::ErrorCode::CodecMandatoryMissing,
                        "XmlCodec: mandatory field '" + label + "' of message '" +
                            message.type() + "' has no value");
        }
    }

    xml::Node root(doc_.header().xmlRoot);
    auto emit = [&](const std::vector<FieldSpec>& specs) {
        for (const FieldSpec& fieldSpec : specs) {
            if (fieldSpec.length != FieldSpec::Length::XmlPath) continue;
            std::string text;
            if (spec->rule && spec->rule->field == fieldSpec.label) {
                text = spec->rule->value;
            } else if (const auto value = message.value(fieldSpec.label)) {
                text = value->toText();
            } else if (fieldSpec.defaultValue) {
                text = *fieldSpec.defaultValue;
            } else {
                continue;  // optional field the message does not carry
            }
            resolveOrCreate(root, fieldSpec.ref)->setText(text);
        }
    };
    emit(doc_.header().fields);
    emit(spec->fields);
    return toBytes(xml::write(root));
}

}  // namespace starlink::mdl
