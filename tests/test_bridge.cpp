// Unit tests for the Starlink facade and the built-in model library:
// deployment validation, runtime extensibility, model sanity.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "sim_fixture.hpp"

namespace starlink::bridge {
namespace {

using models::Case;
using models::Role;
using testing::SimTest;

class BridgeTest : public SimTest {
protected:
    Starlink starlink{network};
};

TEST_F(BridgeTest, DeploysEveryCase) {
    int port = 8085;
    for (const models::Direction& d : models::directions()) {
        // Distinct host per bridge; distinct HTTP port to avoid rebinds.
        const std::string host = "10.0.1." + std::to_string(port - 8084);
        EXPECT_NO_THROW(starlink.deploy(models::forDirection(d, host, port++), host)) << d.name;
    }
    EXPECT_EQ(starlink.bridges().size(), models::directions().size());
}

TEST_F(BridgeTest, DeployedBridgeStartsAtInitialState) {
    auto& bridge = starlink.deploy(models::forCase(Case::SlpToBonjour, "10.0.0.9"), "10.0.0.9");
    EXPECT_TRUE(bridge.engine().running());
    EXPECT_EQ(bridge.engine().currentState(), "s10");
    EXPECT_EQ(bridge.host(), "10.0.0.9");
    EXPECT_TRUE(bridge.engine().sessions().empty());
}

TEST_F(BridgeTest, RejectsBridgeWithUncoveredMandatoryField) {
    auto spec = models::forCase(Case::SlpToBonjour, "10.0.0.9");
    // Excise the XID assignment block: SLPSrvReply's mandatory XID is then
    // uncovered and the deployment must fail the eqn-1 check.
    const std::size_t start = spec.bridgeXml.find(
        "    <Assignment>\n      <Field state=\"s11\" message=\"SLPSrvReply\" path=\"XID\"");
    ASSERT_NE(start, std::string::npos);
    const std::size_t end = spec.bridgeXml.find("</Assignment>\n", start);
    ASSERT_NE(end, std::string::npos);
    spec.bridgeXml.erase(start, end + 14 - start);

    EXPECT_THROW(starlink.deploy(spec, "10.0.0.9"), SpecError);
}

TEST_F(BridgeTest, RejectsDuplicateProtocolNames) {
    auto spec = models::forCase(Case::SlpToBonjour, "10.0.0.9");
    spec.protocols.push_back(spec.protocols[0]);
    EXPECT_THROW(starlink.deploy(spec, "10.0.0.9"), SpecError);
}

TEST_F(BridgeTest, RejectsBrokenBridgeXml) {
    auto spec = models::forCase(Case::SlpToBonjour, "10.0.0.9");
    spec.bridgeXml = "<Bridge name='x'><Start state='nowhere'/></Bridge>";
    EXPECT_THROW(starlink.deploy(spec, "10.0.0.9"), SpecError);
}

TEST_F(BridgeTest, RegistriesAreExposedForRuntimeExtension) {
    starlink.translations().add("wrap", [](const Value& v) -> std::optional<Value> {
        return Value::ofString("[" + v.toText() + "]");
    });
    EXPECT_TRUE(starlink.translations().contains("wrap"));
    starlink.marshallers().add("Custom", std::make_shared<mdl::StringMarshaller>());
    EXPECT_NE(starlink.marshallers().find("Custom"), nullptr);
}

TEST(Models, MdlDocumentsAllLoad) {
    EXPECT_NO_THROW(mdl::MdlDocument::fromXml(models::slpMdl()));
    EXPECT_NO_THROW(mdl::MdlDocument::fromXml(models::dnsMdl()));
    EXPECT_NO_THROW(mdl::MdlDocument::fromXml(models::ssdpMdl()));
    EXPECT_NO_THROW(mdl::MdlDocument::fromXml(models::httpMdl()));
}

TEST(Models, CaseNamesAreDistinct) {
    std::set<std::string> names;
    for (const models::Direction& d : models::directions()) {
        EXPECT_TRUE(names.insert(d.name).second) << d.name;
        EXPECT_TRUE(names.insert(d.slug).second) << d.slug;
    }
}

TEST(Models, HttpServerAutomatonUsesRequestedPort) {
    const std::string xml = models::httpAutomaton(Role::Server, 9999);
    EXPECT_NE(xml.find("port=\"9999\""), std::string::npos);
    const std::string client = models::httpAutomaton(Role::Client);
    EXPECT_NE(client.find("port=\"80\""), std::string::npos);
}

TEST(Models, BridgeHostParameterisesLocation) {
    const auto spec = models::forCase(Case::UpnpToSlp, "192.168.1.50", 8444);
    EXPECT_NE(spec.bridgeXml.find("http://192.168.1.50:8444/desc.xml"), std::string::npos);
}

// Identities of the built-in deployments, recorded while the models were still
// generated by C++ string code. Each pins every document of its spec byte for
// byte (modelSetIdentity is an FNV-1a over all of them), so a change to an
// embedded model file, or to the host/port substitutions, moves a value here.
TEST(Models, BuiltinIdentitiesMatchRecordedValues) {
    struct Pin {
        std::string what;
        models::DeploymentSpec spec;
        std::uint64_t identity;
    };
    // In Case order; only the two UPnP-side cases vary with host and port.
    const std::uint64_t atDefault[] = {0xccd717387e8df557ull, 0x17bcd3311d3189faull,
                                       0xacb049b39c5a588bull, 0x468ee92a324cf3d4ull,
                                       0x4fc2e50c57abe788ull, 0x1bd76f4637072631ull};
    const std::uint64_t atOther[] = {0xccd717387e8df557ull, 0x17bcd3311d3189faull,
                                     0x70be13a026af8c16ull, 0x6fc0b938f466248dull,
                                     0x4fc2e50c57abe788ull, 0x1bd76f4637072631ull};
    std::vector<Pin> pins;
    for (const Case c : models::kAllCases) {
        const auto i = static_cast<std::size_t>(c);
        pins.push_back({std::string(models::direction(c).slug) + "@10.0.0.9:8085",
                        models::forCase(c, "10.0.0.9", 8085), atDefault[i]});
        pins.push_back({std::string(models::direction(c).slug) + "@192.168.1.50:8444",
                        models::forCase(c, "192.168.1.50", 8444), atOther[i]});
    }
    pins.push_back({"slp-to-ldap", models::slpToLdap("10.0.0.3"), 0xb6ac54344b417a11ull});
    pins.push_back({"slp-to-ldap-without-predicate",
                    models::slpToLdapWithoutPredicate("10.0.0.3"), 0x2c4312d7be251f83ull});
    pins.push_back({"ldap-to-slp", models::ldapToSlp(), 0xdf287cdcfe88c148ull});
    pins.push_back({"slp-to-wsd", models::slpToWsd(), 0xc50c41d1031662b1ull});
    pins.push_back({"wsd-to-slp", models::wsdToSlp(), 0xa7568c5bab8ac0d4ull});
    for (const Pin& pin : pins) {
        EXPECT_EQ(models::modelSetIdentity(pin.spec), pin.identity)
            << pin.what << " = 0x" << std::hex << models::modelSetIdentity(pin.spec) << "ull";
    }
}

}  // namespace
}  // namespace starlink::bridge
