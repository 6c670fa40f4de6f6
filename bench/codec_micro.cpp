// Codec microbenchmark: compiled plans vs the pre-plan interpreters.
//
// For each built-in MDL (SLP + DNS binary, SSDP + HTTP text, WSD xml) this
// harness times parse and compose through BOTH execution paths the codecs
// keep side by side:
//
//   plan    -- the flat CodecPlan compiled at load time (the hot path the
//              engine runs: parse() / composeInto() with a reused buffer);
//   interp  -- parseInterpreted() / composeInterpreted(), the original
//              interpreters that re-derive marshallers, delimiters, paths
//              and rule dispatch from the MdlDocument per message.
//
// Wall-clock time (the virtual clock is irrelevant for CPU microbenches):
// each sample times kItersPerSample operations, kSamples samples per row,
// reported as min/median/max microseconds per operation. The rows take
// turns inside every sample round, so a stretch of slow host time lands on
// all of them alike.
//
//   bench_codec_micro          print the table + speedup column
//   bench_codec_micro --json   also write BENCH_codec.json (schema in
//                              stats.hpp; gated by tools/bench_compare.py)
//
// Exit status: 0 when every plan path parses/composes byte-identically to
// its interpreter AND the text parse+compose speedup is >= 1.5x (the
// optimisation target this PR claims); 1 otherwise.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/mdl/codec.hpp"
#include "protocols/http/http_codec.hpp"
#include "protocols/mdns/dns_codec.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "protocols/wsd/wsd_codec.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;

constexpr int kSamples = 101;
constexpr int kItersPerSample = 1000;

struct CaseResult {
    std::string name;          // e.g. "text/ssdp"
    const mdl::MessageCodec* codec = nullptr;
    Bytes wire;
    /// The plan parse of `wire`: compose exercises exactly the fields a real
    /// bridged session carries. nullopt when the sample does not parse.
    std::optional<AbstractMessage> message;
    Bytes scratch;             // composeInto's reused buffer
    bench::Summary parsePlan, parseInterp, composePlan, composeInterp;
    bool identical = true;     // plan output byte-identical to interpreter
};

/// Checks one codec on one wire sample: the plan path must parse and compose
/// byte-identically to the interpreter.
CaseResult checkCodec(const std::string& name, const mdl::MessageCodec& codec, Bytes wire) {
    CaseResult out;
    out.name = name;
    out.codec = &codec;
    out.wire = std::move(wire);

    const auto viaPlan = codec.parse(out.wire);
    const auto viaInterp = codec.parseInterpreted(out.wire);
    if (!viaPlan || !viaInterp) {
        std::fprintf(stderr, "%s: sample wire message does not parse\n", name.c_str());
        out.identical = false;
        return out;
    }
    const Bytes composedInterp = codec.composeInterpreted(*viaInterp);
    Bytes composedPlan;
    codec.composeInto(*viaPlan, composedPlan);
    out.identical = composedPlan == composedInterp;
    if (!out.identical) {
        std::fprintf(stderr, "%s: plan compose differs from interpreter\n", name.c_str());
    }
    out.message = *viaPlan;
    return out;
}

/// One timed codec operation and the summary it fills.
struct Timed {
    std::function<void()> op;
    bench::Summary* summary;
    std::vector<double> usPerOp;
};

/// Appends the case's four operations (parse and compose, plan and
/// interpreter); a sample that does not parse is not timed.
void addOperations(CaseResult& r, std::vector<Timed>& timed) {
    if (!r.message) return;
    timed.push_back({[&r] { r.codec->parse(r.wire); }, &r.parsePlan, {}});
    timed.push_back({[&r] { r.codec->parseInterpreted(r.wire); }, &r.parseInterp, {}});
    timed.push_back({[&r] { r.codec->composeInto(*r.message, r.scratch); }, &r.composePlan, {}});
    timed.push_back({[&r] { r.codec->composeInterpreted(*r.message); }, &r.composeInterp, {}});
}

/// Fills every operation's summary with microseconds per call over kSamples
/// batches of kItersPerSample calls. Each sample round times every operation
/// once, so host-speed drift (other load, clock changes) hits the plan and
/// interpreter rows alike and cancels in the gate's normalised medians.
void measure(std::vector<Timed>& timed) {
    using Clock = std::chrono::steady_clock;
    for (Timed& t : timed) {
        for (int i = 0; i < kItersPerSample / 10; ++i) t.op();  // warm-up
        t.usPerOp.reserve(kSamples);
    }
    for (int s = 0; s < kSamples; ++s) {
        for (Timed& t : timed) {
            const auto begin = Clock::now();
            for (int i = 0; i < kItersPerSample; ++i) t.op();
            const auto end = Clock::now();
            const double us =
                std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(end -
                                                                                      begin)
                    .count();
            t.usPerOp.push_back(us / kItersPerSample);
        }
    }
    for (Timed& t : timed) *t.summary = bench::summarize(std::move(t.usPerOp));
}

void printCase(const CaseResult& r) {
    const auto row = [](const char* op, const bench::Summary& plan,
                        const bench::Summary& interp) {
        std::printf("  %-9s plan %8.2f us/op   interp %8.2f us/op   speedup %5.2fx\n", op,
                    plan.medianMs, interp.medianMs,
                    plan.medianMs > 0 ? interp.medianMs / plan.medianMs : 0.0);
    };
    std::printf("%s%s\n", r.name.c_str(), r.identical ? "" : "   [MISMATCH]");
    row("parse", r.parsePlan, r.parseInterp);
    row("compose", r.composePlan, r.composeInterp);
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
    }

    // One realistic wire sample per MDL, produced by the legacy stacks.
    slp::SrvRequest slpRequest;
    slpRequest.xid = 7;
    slpRequest.serviceType = "service:printer";
    slpRequest.predicate = "(colour=true)";
    const auto slpCodec = mdl::MessageCodec::fromXml(bridge::models::slpMdl());
    const Bytes slpWire = slp::encode(slpRequest);

    const auto dnsCodec = mdl::MessageCodec::fromXml(bridge::models::dnsMdl());
    const Bytes dnsWire = mdns::encode(
        mdns::makeResponse(9, "_printer._tcp.local", "service:printer://10.0.0.3:515/queue"));

    ssdp::Response ssdpResponse;
    ssdpResponse.st = "urn:schemas-upnp-org:service:printer:1";
    ssdpResponse.usn = "uuid:device-1::urn:schemas-upnp-org:service:printer:1";
    ssdpResponse.location = "http://10.0.0.3:8080/description.xml";
    const auto ssdpCodec = mdl::MessageCodec::fromXml(bridge::models::ssdpMdl());
    const Bytes ssdpWire = ssdp::encode(ssdpResponse);

    http::Request httpRequest;
    httpRequest.path = "/description.xml";
    httpRequest.headers.emplace_back("Host", "10.0.0.3:8080");
    httpRequest.headers.emplace_back("Accept", "text/xml");
    const auto httpCodec = mdl::MessageCodec::fromXml(bridge::models::httpMdl());
    const Bytes httpWire = http::encode(httpRequest);

    const auto wsdCodec = mdl::MessageCodec::fromXml(bridge::models::wsdMdl());
    const Bytes wsdWire = wsd::encode(
        wsd::ProbeMatch{"uuid:target-1", "uuid:client-9", "printer", "http://10.0.0.3:5357/p"});

    std::printf("Codec microbenchmark: compiled plans vs pre-plan interpreters\n");
    std::printf("(%d samples x %d ops, wall-clock microseconds per operation)\n\n", kSamples,
                kItersPerSample);

    CaseResult results[] = {
        checkCodec("binary/slp", *slpCodec, slpWire),
        checkCodec("binary/dns", *dnsCodec, dnsWire),
        checkCodec("text/ssdp", *ssdpCodec, ssdpWire),
        checkCodec("text/http", *httpCodec, httpWire),
        checkCodec("xml/wsd", *wsdCodec, wsdWire),
    };
    std::vector<Timed> timed;
    for (CaseResult& r : results) addOperations(r, timed);
    measure(timed);
    for (const CaseResult& r : results) printCase(r);

    // The acceptance gate: text parse+compose, plan vs interpreter, summed
    // medians (the bridged-session text hot path does both per message).
    double textPlan = 0;
    double textInterp = 0;
    bool identical = true;
    for (const CaseResult& r : results) {
        identical = identical && r.identical;
        if (r.name.rfind("text/", 0) == 0) {
            textPlan += r.parsePlan.medianMs + r.composePlan.medianMs;
            textInterp += r.parseInterp.medianMs + r.composeInterp.medianMs;
        }
    }
    const double textSpeedup = textPlan > 0 ? textInterp / textPlan : 0.0;
    std::printf("\ntext parse+compose speedup (plan vs interpreter): %.2fx (target >= 1.5x)\n",
                textSpeedup);

    if (json) {
        std::vector<bench::JsonRow> rows;
        for (const CaseResult& r : results) {
            rows.push_back({r.name + "/parse/plan", r.parsePlan});
            rows.push_back({r.name + "/parse/interp", r.parseInterp});
            rows.push_back({r.name + "/compose/plan", r.composePlan});
            rows.push_back({r.name + "/compose/interp", r.composeInterp});
        }
        if (!bench::writeJson("BENCH_codec.json", "codec_micro", "us/op", rows)) return 1;
    }

    const bool ok = identical && textSpeedup >= 1.5;
    std::printf("shape check (plan==interpreter bytes; text speedup >= 1.5x): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
