#include "core/message/abstract_message.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace starlink {

namespace {

const Field* findIn(const std::vector<Field>& fields, std::string_view label) {
    for (const Field& f : fields) {
        if (f.label() == label) return &f;
    }
    return nullptr;
}

Field* findIn(std::vector<Field>& fields, std::string_view label) {
    for (Field& f : fields) {
        if (f.label() == label) return &f;
    }
    return nullptr;
}

/// Splits "a.b.c" into its first label and the rest without allocating; an
/// empty path (or an empty segment) is the label "".
struct PathWalk {
    std::string_view rest;
    bool done = false;

    std::string_view next() {
        const std::size_t dot = rest.find('.');
        const std::string_view step = rest.substr(0, dot);
        if (dot == std::string_view::npos) {
            done = true;
        } else {
            rest.remove_prefix(dot + 1);
        }
        return step;
    }
};

template <typename FieldT, typename Fields>
FieldT* walk(Fields& fields, std::string_view dottedPath) {
    PathWalk path{dottedPath};
    FieldT* current = findIn(fields, path.next());
    while (current != nullptr && !path.done) current = current->child(path.next());
    return current;
}

}  // namespace

const Field* AbstractMessage::field(std::string_view dottedPath) const {
    return walk<const Field>(fields_, dottedPath);
}

Field* AbstractMessage::field(std::string_view dottedPath) {
    return walk<Field>(fields_, dottedPath);
}

std::optional<Value> AbstractMessage::value(std::string_view dottedPath) const {
    const Field* f = field(dottedPath);
    if (f == nullptr || !f->isPrimitive()) return std::nullopt;
    return f->value();
}

void AbstractMessage::setValue(std::string_view dottedPath, Value value, std::string typeName) {
    // Walk/create the structured spine.
    PathWalk path{dottedPath};
    std::string_view step = path.next();
    std::vector<Field>* container = &fields_;
    while (!path.done) {
        Field* next = findIn(*container, step);
        if (next == nullptr) {
            container->push_back(Field::structured(std::string(step)));
            next = &container->back();
        }
        if (next->isPrimitive()) {
            throw SpecError("setValue: '" + std::string(step) + "' in path '" +
                            std::string(dottedPath) + "' is a primitive field, cannot descend");
        }
        container = &next->children();
        step = path.next();
    }

    Field* leaf = findIn(*container, step);
    if (leaf == nullptr) {
        container->push_back(
            Field::primitive(std::string(step), std::move(typeName), std::move(value)));
        return;
    }
    if (!leaf->isPrimitive()) {
        throw SpecError("setValue: '" + std::string(dottedPath) + "' addresses a structured field");
    }
    leaf->setValue(std::move(value));
}

bool AbstractMessage::removeField(std::string_view label) {
    for (auto it = fields_.begin(); it != fields_.end(); ++it) {
        if (it->label() == label) {
            fields_.erase(it);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// XML projection

namespace {

void fieldToXml(const Field& field, xml::Node& parent) {
    if (field.isPrimitive()) {
        xml::Node& node = parent.appendChild("primitiveField");
        node.appendChild("label").setText(field.label());
        node.appendChild("type").setText(field.typeName());
        if (field.lengthBits()) {
            node.appendChild("length").setText(std::to_string(*field.lengthBits()));
        }
        node.appendChild("valueType").setText(valueTypeName(field.value().type()));
        node.appendChild("value").setText(field.value().toText());
    } else {
        xml::Node& node = parent.appendChild("structuredField");
        node.appendChild("label").setText(field.label());
        for (const Field& child : field.children()) {
            fieldToXml(child, node);
        }
    }
}

Field fieldFromXml(const xml::Node& node) {
    const auto label = node.childText("label");
    if (!label) throw SpecError("abstract message xml: field without <label>");
    if (node.name() == "primitiveField") {
        const std::string typeName = trim(node.childText("type").value_or("String"));
        const std::string valueTypeText = trim(node.childText("valueType").value_or("String"));
        const auto valueType = valueTypeFromName(valueTypeText);
        if (!valueType) {
            throw SpecError("abstract message xml: unknown valueType '" + valueTypeText + "'");
        }
        const std::string text = node.childText("value").value_or("");
        const auto value = Value::fromText(*valueType, trim(text));
        if (!value) {
            throw SpecError("abstract message xml: value '" + text + "' does not parse as " +
                            valueTypeText);
        }
        std::optional<int> lengthBits;
        if (const auto lengthText = node.childText("length")) {
            const auto parsed = parseInt(trim(*lengthText));
            if (parsed) lengthBits = static_cast<int>(*parsed);
        }
        return Field::primitive(trim(*label), typeName, *value, lengthBits);
    }
    if (node.name() == "structuredField") {
        std::vector<Field> children;
        for (const auto& child : node.children()) {
            if (child->name() == "primitiveField" || child->name() == "structuredField") {
                children.push_back(fieldFromXml(*child));
            }
        }
        return Field::structured(trim(*label), std::move(children));
    }
    throw SpecError("abstract message xml: unexpected element <" + node.name() + ">");
}

void describeField(const Field& field, int depth, std::ostringstream& out) {
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ');
    if (field.isPrimitive()) {
        out << field.label() << " : " << field.typeName() << " = " << field.value().toText()
            << '\n';
    } else {
        out << field.label() << " {\n";
        for (const Field& child : field.children()) {
            describeField(child, depth + 1, out);
        }
        out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << "}\n";
    }
}

}  // namespace

std::unique_ptr<xml::Node> AbstractMessage::toXml() const {
    auto root = std::make_unique<xml::Node>("field");
    root->setAttribute("message", type_);
    for (const Field& f : fields_) {
        fieldToXml(f, *root);
    }
    return root;
}

AbstractMessage AbstractMessage::fromXml(const xml::Node& root) {
    if (root.name() != "field") {
        throw SpecError("abstract message xml: root must be <field>, got <" + root.name() + ">");
    }
    AbstractMessage msg(root.attribute("message").value_or(""));
    for (const auto& child : root.children()) {
        if (child->name() == "primitiveField" || child->name() == "structuredField") {
            msg.addField(fieldFromXml(*child));
        }
    }
    return msg;
}

std::string AbstractMessage::describe() const {
    std::ostringstream out;
    out << "message " << type_ << " {\n";
    for (const Field& f : fields_) {
        describeField(f, 1, out);
    }
    out << "}\n";
    return out.str();
}

}  // namespace starlink
