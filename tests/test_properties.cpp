// Parameterized property sweeps (TEST_P) over the framework's invariants:
//
//   P1  MDL round-trip: parse(compose(parse(wire))) is the identity on every
//       legacy wire message, across seeded random message populations.
//   P2  Parser totality: no byte buffer -- random or a mutation of a valid
//       message -- makes a codec crash or throw; it parses or returns
//       nullopt.
//   P3  Color hash injectivity under seeded random descriptor populations.
//   P4  XML round-trip: write(parse(x)) reparses structurally equal, over
//       randomly generated documents.
//   P5  End-to-end value transport: for every built-in direction, a
//       randomized service URL arrives at the heterogeneous client intact.
//   P6  Session interleaving: shuffling the dispatch order of a session
//       workload (and re-partitioning it across shards) never changes any
//       SessionRecord outcome -- 50 seeded shuffles.
#include <gtest/gtest.h>

#include <map>

#include "net/sim_network.hpp"
#include "common/rng.hpp"
#include "core/automata/color.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/mdl/codec.hpp"
#include "protocols/ldap/ldap_codec.hpp"
#include "protocols/mdns/dns_codec.hpp"
#include "protocols/peers.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "protocols/wsd/wsd_codec.hpp"
#include "sim_fixture.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace starlink::bridge::models {

// Stable, readable test names: a Direction parameter prints as its slug.
void PrintTo(const Direction& d, std::ostream* os) { *os << d.slug; }

}  // namespace starlink::bridge::models

namespace starlink {
namespace {

std::string randomToken(Rng& rng, int maxLength, const std::string& alphabet) {
    std::string out;
    const int length = static_cast<int>(rng.range(1, maxLength));
    for (int i = 0; i < length; ++i) {
        out.push_back(alphabet[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(alphabet.size() - 1)))]);
    }
    return out;
}

// --- P1/P2 over the binary protocols -----------------------------------------------

class BinaryCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryCodecProperty, SlpRoundTripAndTotality) {
    Rng rng(GetParam());
    const auto codec = mdl::MessageCodec::fromXml(bridge::models::slpMdl());
    const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789:/._-()=";
    for (int round = 0; round < 40; ++round) {
        Bytes wire;
        if (rng.chance(0.5)) {
            slp::SrvRequest request;
            request.xid = static_cast<std::uint16_t>(rng.range(0, 65535));
            request.serviceType = "service:" + randomToken(rng, 24, alphabet);
            request.prList = rng.chance(0.5) ? randomToken(rng, 30, alphabet) : "";
            request.predicate = rng.chance(0.5) ? randomToken(rng, 30, alphabet) : "";
            wire = slp::encode(request);
        } else {
            slp::SrvReply reply;
            reply.xid = static_cast<std::uint16_t>(rng.range(0, 65535));
            reply.lifetime = static_cast<std::uint16_t>(rng.range(0, 65535));
            reply.url = randomToken(rng, 60, alphabet);
            wire = slp::encode(reply);
        }
        const auto message = codec->parse(wire);
        ASSERT_TRUE(message);
        EXPECT_EQ(codec->compose(*message), wire);

        // Mutate one byte: the parser must stay total.
        Bytes mutated = wire;
        mutated[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(mutated.size() - 1)))] ^=
            static_cast<std::uint8_t>(rng.range(1, 255));
        EXPECT_NO_THROW({ auto result = codec->parse(mutated); (void)result; });
        // Truncate: same contract.
        Bytes truncated(wire.begin(),
                        wire.begin() + static_cast<std::ptrdiff_t>(
                                           rng.range(0, static_cast<std::int64_t>(wire.size()))));
        EXPECT_NO_THROW({ auto result = codec->parse(truncated); (void)result; });
    }
}

TEST_P(BinaryCodecProperty, DnsRoundTripAndTotality) {
    Rng rng(GetParam() * 31 + 7);
    const auto codec = mdl::MessageCodec::fromXml(bridge::models::dnsMdl());
    for (int round = 0; round < 40; ++round) {
        const std::string name = "_" + randomToken(rng, 12, "abcdefghijklmnopqrstuvwxyz") +
                                 "._tcp.local";
        const auto id = static_cast<std::uint16_t>(rng.range(0, 65535));
        const Bytes wire =
            rng.chance(0.5)
                ? mdns::encode(mdns::makeQuestion(id, name))
                : mdns::encode(mdns::makeResponse(
                      id, name, randomToken(rng, 40, "abcdefghij0123456789:/.")));
        const auto message = codec->parse(wire);
        ASSERT_TRUE(message);
        EXPECT_EQ(codec->compose(*message), wire);

        Bytes mutated = wire;
        mutated[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(mutated.size() - 1)))] ^=
            static_cast<std::uint8_t>(rng.range(1, 255));
        EXPECT_NO_THROW({ auto result = codec->parse(mutated); (void)result; });
    }
}

TEST_P(BinaryCodecProperty, PureNoiseNeverParsesAsBothProtocols) {
    // Random byte blobs must never crash either binary codec; the odds of
    // accidentally parsing as a VALID message of both protocols at once are
    // nil because the headers disagree.
    Rng rng(GetParam() * 17 + 3);
    const auto slpCodec = mdl::MessageCodec::fromXml(bridge::models::slpMdl());
    const auto dnsCodec = mdl::MessageCodec::fromXml(bridge::models::dnsMdl());
    for (int round = 0; round < 60; ++round) {
        Bytes noise;
        const int size = static_cast<int>(rng.range(0, 128));
        for (int i = 0; i < size; ++i) {
            noise.push_back(static_cast<std::uint8_t>(rng.range(0, 255)));
        }
        std::optional<AbstractMessage> slpParsed;
        std::optional<AbstractMessage> dnsParsed;
        EXPECT_NO_THROW(slpParsed = slpCodec->parse(noise));
        EXPECT_NO_THROW(dnsParsed = dnsCodec->parse(noise));
        EXPECT_FALSE(slpParsed && dnsParsed);
    }
}

TEST_P(BinaryCodecProperty, LdapRoundTripAndTotality) {
    Rng rng(GetParam() * 53 + 11);
    const auto codec = mdl::MessageCodec::fromXml(bridge::models::ldapMdl());
    const std::string alphabet = "abcdefghij0123456789:=().,";
    for (int round = 0; round < 40; ++round) {
        Bytes wire;
        if (rng.chance(0.5)) {
            ldap::SearchRequest request;
            request.messageId = static_cast<std::uint16_t>(rng.range(0, 65535));
            request.serviceClass = "service:" + randomToken(rng, 16, alphabet);
            request.filter = rng.chance(0.5) ? "(" + randomToken(rng, 16, alphabet) + ")" : "";
            wire = ldap::encode(request);
        } else {
            ldap::SearchResult result;
            result.messageId = static_cast<std::uint16_t>(rng.range(0, 65535));
            result.dn = "cn=" + randomToken(rng, 12, alphabet);
            result.url = randomToken(rng, 40, alphabet);
            wire = ldap::encode(result);
        }
        const auto message = codec->parse(wire);
        ASSERT_TRUE(message);
        EXPECT_EQ(codec->compose(*message), wire);

        Bytes mutated = wire;
        mutated[static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(mutated.size() - 1)))] ^=
            static_cast<std::uint8_t>(rng.range(1, 255));
        EXPECT_NO_THROW({ auto result = codec->parse(mutated); (void)result; });
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- P2 over the text protocols ------------------------------------------------------

class TextCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextCodecProperty, SsdpAndHttpTotality) {
    Rng rng(GetParam());
    const auto ssdpCodec = mdl::MessageCodec::fromXml(bridge::models::ssdpMdl());
    const auto httpCodec = mdl::MessageCodec::fromXml(bridge::models::httpMdl());
    const std::string alphabet =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789:/._- \r\n\"<>";
    for (int round = 0; round < 60; ++round) {
        const Bytes noise = toBytes(randomToken(rng, 200, alphabet));
        EXPECT_NO_THROW({ auto result = ssdpCodec->parse(noise); (void)result; });
        EXPECT_NO_THROW({ auto result = httpCodec->parse(noise); (void)result; });
    }
}

TEST_P(TextCodecProperty, SsdpFieldValuesSurviveRoundTrip) {
    Rng rng(GetParam() * 11 + 1);
    const auto codec = mdl::MessageCodec::fromXml(bridge::models::ssdpMdl());
    for (int round = 0; round < 30; ++round) {
        ssdp::Response response;
        response.st = "urn:" + randomToken(rng, 30, "abcdefghij:-0123456789");
        response.usn = "uuid:" + randomToken(rng, 20, "abcdef0123456789-");
        response.location = "http://10.0.0." + std::to_string(rng.range(1, 254)) + ":" +
                            std::to_string(rng.range(1, 65535)) + "/" +
                            randomToken(rng, 12, "abcdefghij.");
        const auto message = codec->parse(ssdp::encode(response));
        ASSERT_TRUE(message);
        EXPECT_EQ(message->value("ST")->asString(), response.st);
        EXPECT_EQ(message->value("USN")->asString(), response.usn);
        EXPECT_EQ(message->value("LOCATION")->asString(), response.location);
        // Compose -> legacy decode preserves them too.
        const auto decoded = ssdp::decodeResponse(codec->compose(*message));
        ASSERT_TRUE(decoded);
        EXPECT_EQ(decoded->st, response.st);
        EXPECT_EQ(decoded->location, response.location);
    }
}

TEST_P(TextCodecProperty, WsdFieldValuesSurviveRoundTrip) {
    // The xml dialect: field values with XML-hostile characters survive
    // compose -> legacy decode and legacy encode -> parse.
    Rng rng(GetParam() * 7 + 5);
    const auto codec = mdl::MessageCodec::fromXml(bridge::models::wsdMdl());
    for (int round = 0; round < 30; ++round) {
        wsd::ProbeMatch match;
        match.messageId = "uuid:" + randomToken(rng, 12, "abcdef0123456789-");
        match.relatesTo = "uuid:" + randomToken(rng, 12, "abcdef0123456789-");
        match.types = randomToken(rng, 10, "abcdefghij");
        match.xaddrs = "http://10.0.0." + std::to_string(rng.range(1, 254)) + "/" +
                       randomToken(rng, 10, "abc&<>\"'xyz");
        const auto message = codec->parse(wsd::encode(match));
        ASSERT_TRUE(message);
        EXPECT_EQ(message->value("XAddrs")->asString(), match.xaddrs);
        const auto decoded = wsd::decodeProbeMatch(codec->compose(*message));
        ASSERT_TRUE(decoded);
        EXPECT_EQ(decoded->xaddrs, match.xaddrs);
        EXPECT_EQ(decoded->relatesTo, match.relatesTo);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextCodecProperty, ::testing::Values(4u, 9u, 16u, 25u));

// --- P3: color hash injectivity --------------------------------------------------------

class ColorHashProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColorHashProperty, InjectiveOverRandomDescriptors) {
    Rng rng(GetParam());
    automata::ColorRegistry registry;
    std::map<std::uint64_t, std::string> seen;
    for (int i = 0; i < 500; ++i) {
        automata::Color color;
        const int entries = static_cast<int>(rng.range(1, 6));
        for (int e = 0; e < entries; ++e) {
            std::string key = "k";
            key += std::to_string(rng.range(0, 9));
            color.set(key, randomToken(rng, 8, "abcdefghij0123456789"));
        }
        const std::uint64_t k = registry.colorOf(color);
        const auto [it, inserted] = seen.emplace(k, color.canonicalKey());
        if (!inserted) {
            EXPECT_EQ(it->second, color.canonicalKey());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColorHashProperty, ::testing::Values(11u, 22u, 33u, 44u));

// --- P4: XML round trip ---------------------------------------------------------------

class XmlProperty : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
void buildRandomTree(Rng& rng, xml::Node& node, int depth) {
    const std::string names = "abcdefgh";
    if (rng.chance(0.6)) {
        node.setText(randomToken(rng, 20, "abc <>&\"' xyz123"));
    }
    if (rng.chance(0.7)) {
        node.setAttribute(std::string(1, names[static_cast<std::size_t>(rng.range(0, 7))]),
                          randomToken(rng, 10, "val<>&\"'ue"));
    }
    if (depth < 3) {
        const int children = static_cast<int>(rng.range(0, 3));
        for (int i = 0; i < children; ++i) {
            buildRandomTree(
                rng,
                node.appendChild("e" + std::to_string(rng.range(0, 5))),
                depth + 1);
        }
    }
}
}  // namespace

TEST_P(XmlProperty, WriteParseRoundTrip) {
    Rng rng(GetParam());
    for (int round = 0; round < 50; ++round) {
        xml::Node root("root");
        buildRandomTree(rng, root, 0);
        const std::string text = xml::write(root);
        const auto reparsed = xml::parse(text);
        EXPECT_TRUE(root.structurallyEquals(*reparsed)) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlProperty, ::testing::Values(7u, 14u, 28u));

// --- P5: end-to-end value transport across every direction ------------------------------

class CaseTransportProperty
    : public ::testing::TestWithParam<std::tuple<bridge::models::Direction, std::uint64_t>> {};

TEST_P(CaseTransportProperty, RandomServiceUrlArrivesIntact) {
    const auto& [direction, seed] = GetParam();
    Rng rng(seed);
    const std::string url = "http://10.0.0.3:" + std::to_string(rng.range(1024, 65535)) + "/" +
                            randomToken(rng, 16, "abcdefghijklmnop0123456789");

    peers::SimIsland island;
    island.deploy(direction);

    peers::ServiceConfigs services;
    services.slp.url = url;
    services.upnp.serviceUrl = url;
    services.bonjour.url = url;
    services.ldap.printer.url = url;
    services.wsd.xaddrs = url;
    services.each([](auto& config) { config.responseDelayBase = net::ms(5); });
    peers::ClientConfigs clients;
    clients.upnp.mxWindowBase = net::ms(30);
    clients.bonjour.aggregationBase = net::ms(20);
    island.spawn(direction, services, clients);
    std::vector<std::string> urls;
    island.runLookups(1, [&urls](const peers::Client::Result& r) { urls = r.urls; });

    ASSERT_EQ(urls.size(), 1u) << direction.name;
    EXPECT_EQ(urls[0], url) << direction.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCasesTimesSeeds, CaseTransportProperty,
    ::testing::Combine(::testing::ValuesIn(bridge::models::directions()),
                       ::testing::Values(100u, 200u, 300u)),
    [](const ::testing::TestParamInfo<CaseTransportProperty::ParamType>& info) {
        std::string name = std::get<0>(info.param).name;
        for (char& c : name) {
            if (c == ' ') c = '_';
        }
        return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// --- P6: session interleaving ------------------------------------------------------
//
// A session's outcome is a pure function of (case, seed) -- shard_engine.hpp's
// determinism contract. Property: SHUFFLING the dispatch order of a workload
// (which reshuffles every island's session history and, at shard counts > 1,
// the thread interleaving) never changes any SessionRecord outcome. 50 seeded
// shuffles across the parameterized seeds.

class InterleavingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterleavingProperty, ShuffledDispatchOrderNeverChangesOutcomes) {
    constexpr int kJobs = 30;
    constexpr int kShufflesPerSeed = 10;  // x5 seed instances = 50 iterations

    std::vector<engine::SessionJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
        engine::SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "interleave-" + std::to_string(i);
        jobs.push_back(std::move(job));
    }

    // Reference: submission order, sequential.
    std::map<std::string, engine::SessionResult> reference;
    {
        engine::ShardEngine sequential(engine::ShardEngineOptions{});
        for (const auto& job : jobs) sequential.submit(job);
        for (const auto& result : sequential.run()) {
            reference.emplace(result.job.key, result);
        }
    }
    ASSERT_EQ(reference.size(), jobs.size());

    Rng rng(GetParam());
    for (int round = 0; round < kShufflesPerSeed; ++round) {
        // Seeded Fisher-Yates, then a rotating shard count so the property
        // also covers re-partitioned (multi-threaded) layouts.
        std::vector<engine::SessionJob> shuffled = jobs;
        for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
            const auto j =
                static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i)));
            std::swap(shuffled[i], shuffled[j]);
        }
        engine::ShardEngineOptions options;
        options.shards = 1 << (round % 4);  // 1, 2, 4, 8, ...
        engine::ShardEngine engine(options);
        for (const auto& job : shuffled) engine.submit(job);
        for (const auto& result : engine.run()) {
            const auto it = reference.find(result.job.key);
            ASSERT_NE(it, reference.end()) << result.job.key;
            EXPECT_EQ(result.discovered, it->second.discovered) << result.job.key;
            ASSERT_EQ(result.outcomes.size(), it->second.outcomes.size())
                << result.job.key;
            for (std::size_t s = 0; s < result.outcomes.size(); ++s) {
                EXPECT_TRUE(result.outcomes[s] == it->second.outcomes[s])
                    << result.job.key << " session " << s << " diverged under "
                    << options.shards << "-shard shuffle " << round;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleavingProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace starlink
