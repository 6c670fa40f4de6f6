// Parameterized sweeps over the MDL layer: marshaller round-trips across
// every field width, value-coercion matrix, and a malformed-specification
// corpus that must be rejected at load time with a diagnostic.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mdl/codec.hpp"

namespace starlink::mdl {
namespace {

// --- Integer marshaller across all widths -------------------------------------------

class IntegerWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntegerWidthSweep, RoundTripAtWidth) {
    const int bits = GetParam();
    IntegerMarshaller marshaller;
    Rng rng(static_cast<std::uint64_t>(bits) * 1000 + 1);
    for (int round = 0; round < 30; ++round) {
        const std::uint64_t limit = bits == 63 ? ~0ULL >> 1 : (1ULL << bits) - 1;
        const std::int64_t value = static_cast<std::int64_t>(rng.next() % (limit + 1));
        BitWriter writer;
        marshaller.write(writer, Value::ofInt(value), bits);
        EXPECT_EQ(marshaller.encodedBits(Value::ofInt(value), bits), bits);
        const Bytes data = writer.take();
        BitReader reader(data);
        const auto back = marshaller.read(reader, bits);
        ASSERT_TRUE(back);
        EXPECT_EQ(back->asInt(), value) << "width " << bits;
    }
}

TEST_P(IntegerWidthSweep, OverflowRejectedAtWidth) {
    const int bits = GetParam();
    if (bits >= 63) GTEST_SKIP() << "no representable overflow";
    IntegerMarshaller marshaller;
    BitWriter writer;
    EXPECT_THROW(marshaller.write(writer, Value::ofInt(std::int64_t{1} << bits), bits),
                 ProtocolError);
}

INSTANTIATE_TEST_SUITE_P(Widths, IntegerWidthSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 24, 31, 32, 48, 63));

// --- String / Bytes marshaller length sweep --------------------------------------------

class TextLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TextLengthSweep, StringRoundTripAtLength) {
    const int bytes = GetParam();
    StringMarshaller marshaller;
    Rng rng(static_cast<std::uint64_t>(bytes) + 77);
    std::string text;
    for (int i = 0; i < bytes; ++i) {
        text.push_back(static_cast<char>('a' + rng.range(0, 25)));
    }
    BitWriter writer;
    marshaller.write(writer, Value::ofString(text), bytes * 8);
    const Bytes data = writer.take();
    ASSERT_EQ(data.size(), static_cast<std::size_t>(bytes));
    BitReader reader(data);
    const auto back = marshaller.read(reader, bytes * 8);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->asString(), text);
}

TEST_P(TextLengthSweep, BytesRoundTripAtLength) {
    const int count = GetParam();
    BytesMarshaller marshaller;
    Rng rng(static_cast<std::uint64_t>(count) + 177);
    Bytes buffer;
    for (int i = 0; i < count; ++i) {
        buffer.push_back(static_cast<std::uint8_t>(rng.range(0, 255)));
    }
    BitWriter writer;
    marshaller.write(writer, Value::ofBytes(buffer), count * 8);
    BitReader reader(writer.buffer());
    const auto back = marshaller.read(reader, count * 8);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->asBytes(), buffer);
}

INSTANTIATE_TEST_SUITE_P(Lengths, TextLengthSweep, ::testing::Values(1, 2, 5, 16, 64, 255));

// --- value coercion matrix ----------------------------------------------------------

struct CoercionCase {
    Value input;
    ValueType target;
    bool shouldSucceed;
    const char* expectedText;  // toText of the coerced value when successful
};

// Stable, readable test names: "Int(42) to String" instead of the object bytes.
void PrintTo(const CoercionCase& c, std::ostream* os) {
    *os << valueTypeName(c.input.type()) << "(" << c.input.toText() << ") to "
        << valueTypeName(c.target);
}

class CoercionMatrix : public ::testing::TestWithParam<CoercionCase> {};

TEST_P(CoercionMatrix, BehavesAsSpecified) {
    const CoercionCase& c = GetParam();
    const auto result = c.input.coerceTo(c.target);
    EXPECT_EQ(result.has_value(), c.shouldSucceed);
    if (result && c.shouldSucceed) {
        EXPECT_EQ(result->type(), c.target);
        EXPECT_STREQ(result->toText().c_str(), c.expectedText);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CoercionMatrix,
    ::testing::Values(
        CoercionCase{Value::ofInt(42), ValueType::String, true, "42"},
        CoercionCase{Value::ofString("42"), ValueType::Int, true, "42"},
        CoercionCase{Value::ofString("x42"), ValueType::Int, false, ""},
        CoercionCase{Value::ofBool(true), ValueType::Int, true, "1"},
        CoercionCase{Value::ofInt(0), ValueType::Bool, true, "false"},
        CoercionCase{Value::ofInt(7), ValueType::Bool, true, "true"},
        CoercionCase{Value::ofString("ab"), ValueType::Bytes, true, "6162"},
        CoercionCase{Value::ofBytes({0x61}), ValueType::String, true, "61"},
        CoercionCase{Value::ofBool(true), ValueType::Bytes, false, ""},
        CoercionCase{Value::ofDouble(2.5), ValueType::Int, true, "2"},
        CoercionCase{Value::ofInt(3), ValueType::Double, true, "3"},
        CoercionCase{Value::ofString("true"), ValueType::Bool, true, "true"},
        CoercionCase{Value::ofString("perhaps"), ValueType::Bool, false, ""},
        CoercionCase{Value(), ValueType::String, true, ""}));

// --- malformed-specification corpus -----------------------------------------------------

struct BadSpec {
    const char* description;
    const char* xml;
};

void PrintTo(const BadSpec& spec, std::ostream* os) { *os << spec.description; }

class BadSpecCorpus : public ::testing::TestWithParam<BadSpec> {};

TEST_P(BadSpecCorpus, RejectedWithDiagnostic) {
    try {
        MdlDocument::fromXml(GetParam().xml);
        FAIL() << GetParam().description << " was accepted";
    } catch (const SpecError& error) {
        EXPECT_GT(std::string(error.what()).size(), 10u) << GetParam().description;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BadSpecCorpus,
    ::testing::Values(
        BadSpec{"wrong root", "<NotMdl/>"},
        BadSpec{"unknown kind", R"(<Mdl kind="quantum"><Header type="X"/>
            <Message type="M"/></Mdl>)"},
        BadSpec{"missing header", R"(<Mdl kind="binary"><Message type="M"/></Mdl>)"},
        BadSpec{"no messages", R"(<Mdl kind="binary"><Header type="X"/></Mdl>)"},
        BadSpec{"message without type", R"(<Mdl kind="binary"><Header type="X"/>
            <Message/></Mdl>)"},
        BadSpec{"duplicate message type", R"(<Mdl kind="binary"><Header type="X"><A>8</A></Header>
            <Message type="M"/><Message type="M"/></Mdl>)"},
        BadSpec{"duplicate header field", R"(<Mdl kind="binary">
            <Header type="X"><A>8</A><A>8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"duplicate type declaration", R"(<Mdl kind="binary">
            <Types><T>Integer</T><T>String</T></Types>
            <Header type="X"/><Message type="M"/></Mdl>)"},
        BadSpec{"zero bit length", R"(<Mdl kind="binary">
            <Header type="X"><A>0</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"negative bit length", R"(<Mdl kind="binary">
            <Header type="X"><A>-8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"rule on unknown field", R"(<Mdl kind="binary">
            <Header type="X"><A>8</A></Header>
            <Message type="M"><Rule>Ghost=1</Rule></Message></Mdl>)"},
        BadSpec{"two rules in one message", R"(<Mdl kind="binary">
            <Header type="X"><A>8</A></Header>
            <Message type="M"><Rule>A=1</Rule><Rule>A=2</Rule></Message></Mdl>)"},
        BadSpec{"rule without equals", R"(<Mdl kind="binary">
            <Header type="X"><A>8</A></Header>
            <Message type="M"><Rule>A</Rule></Message></Mdl>)"},
        BadSpec{"forward length reference", R"(<Mdl kind="binary">
            <Header type="X"><A>B</A><B>16</B></Header>
            <Message type="M"><Rule>B=1</Rule></Message></Mdl>)"},
        BadSpec{"length ref to unknown field in body", R"(<Mdl kind="binary">
            <Header type="X"><A>8</A></Header>
            <Message type="M"><Rule>A=1</Rule><D>Ghost</D></Message></Mdl>)"},
        BadSpec{"undeclared field type attribute", R"(<Mdl kind="binary">
            <Header type="X"><A type="Ghost">8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"unknown type function", R"(<Mdl kind="binary">
            <Types><L>Integer[f-crc32(A)]</L></Types>
            <Header type="X"><A>8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"f-length without argument", R"(<Mdl kind="binary">
            <Types><L>Integer[f-length()]</L></Types>
            <Header type="X"><A>8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"unterminated type function", R"(<Mdl kind="binary">
            <Types><L>Integer[f-length(A</L></Types>
            <Header type="X"><A>8</A></Header><Message type="M"/></Mdl>)"},
        BadSpec{"text Fields without inner split", R"(<Mdl kind="text">
            <Header type="X"><Fields>13,10</Fields></Header><Message type="M"/></Mdl>)"},
        BadSpec{"text multi-char inner split", R"(<Mdl kind="text">
            <Header type="X"><Fields>13,10:58,32</Fields></Header><Message type="M"/></Mdl>)"},
        BadSpec{"text bad delimiter code", R"(<Mdl kind="text">
            <Header type="X"><A>999</A></Header><Message type="M"/></Mdl>)"}));

// --- codec-level spec misuse ----------------------------------------------------------

TEST(MdlCodecMisuse, AutoLengthOnNonSelfDelimitingType) {
    // 'auto' requires a self-delimiting marshaller (like FQDN); Integer is
    // not, and the codec must refuse at load time.
    const char* xml = R"(<Mdl kind="binary">
        <Header type="X"><A>auto</A></Header>
        <Message type="M"><Rule>A=1</Rule></Message></Mdl>)";
    EXPECT_THROW(MessageCodec::fromXml(xml), SpecError);
}

TEST(MdlCodecMisuse, WrongDialectCodec) {
    const char* binaryXml = R"(<Mdl kind="binary">
        <Header type="X"><A>8</A></Header><Message type="M"><Rule>A=1</Rule></Message></Mdl>)";
    const MdlDocument doc = MdlDocument::fromXml(binaryXml);
    auto registry = MarshallerRegistry::withDefaults();
    EXPECT_THROW(TextCodec(doc, registry), SpecError);
    const char* textXml = R"(<Mdl kind="text">
        <Header type="X"><A>32</A></Header><Message type="M"><Rule>A=x</Rule></Message></Mdl>)";
    const MdlDocument textDoc = MdlDocument::fromXml(textXml);
    EXPECT_THROW(BinaryCodec(textDoc, registry), SpecError);
}

}  // namespace
}  // namespace starlink::mdl
