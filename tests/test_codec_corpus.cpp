// Codec corpus tests: the compiled-plan paths against the pre-plan
// interpreters, and adversarial wire input against every decoder.
//
// Two halves:
//  - differential: every MDL under models/ (read from disk via
//    STARLINK_MODELS_DIR; the built-ins are the same files embedded at build
//    time, so there is no second copy to drift) must parse and compose
//    BYTE-IDENTICALLY through the plan and the interpreter, on clean
//    samples, truncations, and seeded single-byte corruptions;
//  - malformed corpus: DNS compression-pointer abuse, oversized XML numeric
//    entities, and delimiter-free text must come back as a clean nullopt or
//    SpecError -- never a crash -- which the CI sanitizer job checks under
//    ASan/UBSan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mdl/codec.hpp"
#include "protocols/http/http_codec.hpp"
#include "protocols/ldap/ldap_codec.hpp"
#include "protocols/mdns/dns_codec.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "protocols/wsd/wsd_codec.hpp"
#include "xml/parser.hpp"

namespace starlink::mdl {
namespace {

// --- differential: plan vs interpreter over models/*.mdl.xml -----------------

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Sample wire messages per protocol, produced by the legacy stacks: one
/// request and one reply each, the shapes a bridged session carries.
std::map<std::string, std::vector<Bytes>> sampleWires() {
    std::map<std::string, std::vector<Bytes>> wires;

    slp::SrvRequest slpRequest;
    slpRequest.xid = 11;
    slpRequest.serviceType = "service:printer";
    slpRequest.predicate = "(colour=true)";
    slp::SrvReply slpReply;
    slpReply.xid = 11;
    slpReply.url = "service:printer://10.0.0.3:515/queue";
    wires["SLP"] = {slp::encode(slpRequest), slp::encode(slpReply)};

    wires["DNS"] = {
        mdns::encode(mdns::makeQuestion(7, "_printer._tcp.local")),
        mdns::encode(mdns::makeResponse(7, "_printer._tcp.local", "http://10.0.0.3:631/ipp"))};

    ssdp::MSearch search;
    search.st = "urn:schemas-upnp-org:service:printer:1";
    ssdp::Response ssdpResponse;
    ssdpResponse.st = search.st;
    ssdpResponse.usn = "uuid:device-1::" + search.st;
    ssdpResponse.location = "http://10.0.0.3:8080/description.xml";
    wires["SSDP"] = {ssdp::encode(search), ssdp::encode(ssdpResponse)};

    http::Request request;
    request.path = "/description.xml";
    request.headers.emplace_back("Host", "10.0.0.3:8080");
    http::Response response;
    response.headers.emplace_back("Content-Type", "text/xml");
    response.body = "<root><device/></root>";
    wires["HTTP"] = {http::encode(request), http::encode(response)};

    ldap::SearchRequest ldapRequest;
    ldapRequest.messageId = 3;
    ldapRequest.serviceClass = "service:printer";
    ldapRequest.filter = "(colour=true)";
    ldap::SearchResult ldapResult;
    ldapResult.messageId = 3;
    ldapResult.dn = "cn=printer,dc=services,dc=local";
    ldapResult.url = "service:printer://10.0.0.3:515/queue";
    wires["LDAP"] = {ldap::encode(ldapRequest), ldap::encode(ldapResult)};

    wires["WSD"] = {
        wsd::encode(wsd::Probe{"uuid:client-9", "printer"}),
        wsd::encode(wsd::ProbeMatch{"uuid:t", "uuid:client-9", "printer",
                                    "http://10.0.0.3:5357/p"})};
    return wires;
}

std::vector<std::filesystem::path> modelFiles() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(STARLINK_MODELS_DIR)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 8 && name.substr(name.size() - 8) == ".mdl.xml") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(PlanDifferential, ModelsDirectoryIsCovered) {
    // The corpus must actually sweep something; six MDLs ship today.
    EXPECT_GE(modelFiles().size(), 6u);
}

TEST(PlanDifferential, CleanSamplesParseAndComposeIdentically) {
    const auto wires = sampleWires();
    for (const auto& path : modelFiles()) {
        const auto codec = MessageCodec::fromXml(slurp(path));
        const auto it = wires.find(codec->protocol());
        ASSERT_NE(it, wires.end()) << path << ": no wire samples for " << codec->protocol();
        for (const Bytes& wire : it->second) {
            std::string planError;
            std::string interpError;
            const auto viaPlan = codec->parse(wire, &planError);
            const auto viaInterp = codec->parseInterpreted(wire, &interpError);
            ASSERT_TRUE(viaPlan) << path << ": " << planError;
            ASSERT_TRUE(viaInterp) << path << ": " << interpError;
            EXPECT_EQ(*viaPlan, *viaInterp) << path;

            const Bytes composedInterp = codec->composeInterpreted(*viaInterp);
            Bytes composedPlan;
            codec->composeInto(*viaPlan, composedPlan);
            EXPECT_EQ(composedPlan, composedInterp) << path << ": compose paths diverge";
            EXPECT_EQ(codec->compose(*viaPlan), composedInterp) << path;
        }
    }
}

TEST(PlanDifferential, TruncationsAgree) {
    const auto wires = sampleWires();
    for (const auto& path : modelFiles()) {
        const auto codec = MessageCodec::fromXml(slurp(path));
        for (const Bytes& wire : wires.at(codec->protocol())) {
            for (std::size_t cut = 0; cut < wire.size(); ++cut) {
                const Bytes truncated(wire.begin(),
                                      wire.begin() + static_cast<std::ptrdiff_t>(cut));
                const auto viaPlan = codec->parse(truncated);
                const auto viaInterp = codec->parseInterpreted(truncated);
                ASSERT_EQ(viaPlan.has_value(), viaInterp.has_value())
                    << path << ": paths disagree at truncation " << cut;
                if (viaPlan) {
                    EXPECT_EQ(*viaPlan, *viaInterp) << path << " cut " << cut;
                }
            }
        }
    }
}

TEST(PlanDifferential, SeededCorruptionsAgree) {
    const auto wires = sampleWires();
    for (const auto& path : modelFiles()) {
        const auto codec = MessageCodec::fromXml(slurp(path));
        Rng rng(0xC0DEC + wires.at(codec->protocol())[0].size());
        for (const Bytes& wire : wires.at(codec->protocol())) {
            for (int round = 0; round < 100; ++round) {
                Bytes mutated = wire;
                mutated[rng.range(0, mutated.size() - 1)] =
                    static_cast<std::uint8_t>(rng.range(0, 255));
                const auto viaPlan = codec->parse(mutated);
                const auto viaInterp = codec->parseInterpreted(mutated);
                ASSERT_EQ(viaPlan.has_value(), viaInterp.has_value())
                    << path << ": paths disagree on corruption round " << round;
                if (viaPlan) {
                    EXPECT_EQ(*viaPlan, *viaInterp) << path << " round " << round;
                }
            }
        }
    }
}

// --- malformed corpus: DNS compression abuse ---------------------------------

/// A DNS header with the given section counts.
Bytes dnsHeader(std::uint16_t qd, std::uint16_t an) {
    Bytes out;
    appendUint(out, 1, 2);       // id
    appendUint(out, 0x8400, 2);  // flags
    appendUint(out, qd, 2);
    appendUint(out, an, 2);
    appendUint(out, 0, 2);  // ns
    appendUint(out, 0, 2);  // ar
    return out;
}

TEST(DnsAdversarial, CompressedAnswerNameDecodes) {
    // The legitimate shape: answer name is a pointer back to the question
    // name at offset 12.
    Bytes wire = dnsHeader(1, 1);
    for (const char* label : {"\x08_printer", "\x04_tcp", "\x05local"}) {
        wire.insert(wire.end(), label, label + 1 + label[0]);
    }
    wire.push_back(0);
    appendUint(wire, mdns::kTypePtr, 2);
    appendUint(wire, mdns::kClassIn, 2);
    wire.push_back(0xC0);  // answer name: pointer to offset 12
    wire.push_back(0x0C);
    appendUint(wire, mdns::kTypeTxt, 2);
    appendUint(wire, mdns::kClassIn, 2);
    appendUint(wire, 120, 4);
    const std::string url = "http://10.0.0.3:631/ipp";
    appendUint(wire, url.size(), 2);
    wire.insert(wire.end(), url.begin(), url.end());

    const auto message = mdns::decode(wire);
    ASSERT_TRUE(message);
    ASSERT_EQ(message->answers.size(), 1u);
    EXPECT_EQ(message->answers[0].name, "_printer._tcp.local");
    EXPECT_EQ(toString(message->answers[0].rdata), url);

    // And every truncation of it fails cleanly.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        EXPECT_FALSE(mdns::decode(
            Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut))))
            << "truncation at " << cut;
    }
}

/// Question name region + qtype/qclass where the name is raw `nameBytes`.
Bytes dnsWithQuestionName(const Bytes& nameBytes) {
    Bytes wire = dnsHeader(1, 0);
    wire.insert(wire.end(), nameBytes.begin(), nameBytes.end());
    appendUint(wire, mdns::kTypePtr, 2);
    appendUint(wire, mdns::kClassIn, 2);
    return wire;
}

TEST(DnsAdversarial, PointerLoopsRejected) {
    // Self-pointer: offset 12 points at offset 12.
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName({0xC0, 0x0C})));
    // Forward pointer: target past the pointer.
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName({0xC0, 0x20})));
    // Two-pointer cycle: 12 -> 14 is already forward; 14 -> 12 -> 14 the
    // monotonicity guard kills (second target not strictly below the first).
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName({0xC0, 0x0E, 0xC0, 0x0C})));
}

TEST(DnsAdversarial, ReservedLabelTypesRejected) {
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName({0x41, 'x', 0x00})));  // 0x40 class
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName({0x81, 'x', 0x00})));  // 0x80 class
}

TEST(DnsAdversarial, JumpChainBeyondCapRejected) {
    // A strictly-backwards pointer chain long enough to trip the jump cap
    // (every hop monotonically decreasing, so only the cap can stop it).
    // Layout: question name is ONE 69-byte opaque label whose content holds
    // the chain; the answer name enters the chain at its top.
    Bytes name;
    name.push_back(69);                  // label length; content = offsets 13..81
    name.push_back(0);                   // offset 13: filler
    for (int o = 14; o <= 78; o += 2) {  // 33 pointers, each one hop backwards
        name.push_back(0xC0);            // pointer at offset o -> o-2 (14 -> 12,
        name.push_back(static_cast<std::uint8_t>(o - 2));  // the label itself)
    }
    name.push_back(0);                   // offsets 80-81: pad the label content
    name.push_back(0);
    ASSERT_EQ(name.size(), 70u);
    name.push_back(0);                   // offset 82: end of the question name

    Bytes wire = dnsHeader(1, 1);
    wire.insert(wire.end(), name.begin(), name.end());
    appendUint(wire, mdns::kTypePtr, 2);
    appendUint(wire, mdns::kClassIn, 2);
    wire.push_back(0xC0);                // answer name: jump to the chain top
    wire.push_back(78);
    appendUint(wire, mdns::kTypeTxt, 2);
    appendUint(wire, mdns::kClassIn, 2);
    appendUint(wire, 120, 4);
    appendUint(wire, 0, 2);

    // 1 entry jump + 33 chain hops = 34 > the 32-jump cap.
    EXPECT_FALSE(mdns::decode(wire));
}

TEST(DnsAdversarial, OversizedNameRejected) {
    // Labels totalling more than 255 bytes of name.
    Bytes name;
    for (int i = 0; i < 5; ++i) {
        name.push_back(63);
        for (int j = 0; j < 63; ++j) name.push_back('a');
    }
    name.push_back(0);
    EXPECT_FALSE(mdns::decode(dnsWithQuestionName(name)));
}

// --- malformed corpus: XML numeric entities ----------------------------------

TEST(XmlEntityCorpus, NumericReferencesBecomeUtf8) {
    EXPECT_EQ(xml::parse("<a>&#65;</a>")->text(), "A");
    EXPECT_EQ(xml::parse("<a>&#xE9;</a>")->text(), "\xC3\xA9");          // e-acute
    EXPECT_EQ(xml::parse("<a>&#x20AC;</a>")->text(), "\xE2\x82\xAC");    // euro sign
    EXPECT_EQ(xml::parse("<a>&#x1F600;</a>")->text(), "\xF0\x9F\x98\x80");
    EXPECT_EQ(xml::parse("<a>&#x10FFFF;</a>")->text(), "\xF4\x8F\xBF\xBF");
}

TEST(XmlEntityCorpus, OversizedAndSurrogateEntitiesRejected) {
    EXPECT_THROW(xml::parse("<a>&#x110000;</a>"), SpecError);  // beyond Unicode
    EXPECT_THROW(xml::parse("<a>&#1114112;</a>"), SpecError);
    EXPECT_THROW(xml::parse("<a>&#xD800;</a>"), SpecError);    // surrogates
    EXPECT_THROW(xml::parse("<a>&#xDFFF;</a>"), SpecError);
    EXPECT_THROW(xml::parse("<a>&#;</a>"), SpecError);
    EXPECT_THROW(xml::parse("<a>&#xZZ;</a>"), SpecError);
    EXPECT_THROW(xml::parse("<a>&#x7FFFFFFFFFFF;</a>"), SpecError);  // stol overflow
    EXPECT_THROW(xml::parse("<a>&#65</a>"), SpecError);        // unterminated
}

// --- malformed corpus: delimiter-free text -----------------------------------

TEST(TextCorpus, AbsentDelimitersFailCleanly) {
    const auto codec =
        MessageCodec::fromXml(slurp(std::filesystem::path(STARLINK_MODELS_DIR) / "ssdp.mdl.xml"));
    for (const char* wire : {
             "",                          // empty datagram
             "M-SEARCH",                  // no token terminators at all
             "M-SEARCH * HTTP/1.1",       // start line never CRLF-terminated
             "M-SEARCH * HTTP/1.1\rST: x\r",  // bare CR is not the delimiter
         }) {
        std::string planError;
        std::string interpError;
        EXPECT_FALSE(codec->parse(toBytes(wire), &planError)) << wire;
        EXPECT_FALSE(codec->parseInterpreted(toBytes(wire), &interpError)) << wire;
        EXPECT_FALSE(planError.empty()) << wire;
        EXPECT_EQ(planError, interpError) << wire;
    }
    // Header line without the ':' split fails with the same diagnostic on
    // both paths.
    const Bytes noSplit = toBytes("M-SEARCH * HTTP/1.1\r\nST urn-x\r\n\r\n");
    std::string planError;
    std::string interpError;
    EXPECT_FALSE(codec->parse(noSplit, &planError));
    EXPECT_FALSE(codec->parseInterpreted(noSplit, &interpError));
    EXPECT_EQ(planError, interpError);
}

}  // namespace
}  // namespace starlink::mdl
