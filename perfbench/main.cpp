// perfbench -- wall-clock bridge benchmark.
//
//   perfbench --workload sim-mixed|sim-chaos|live-os --seed N --seconds S --trace 0|1
//
// --trace 0 runs the untraced pass and prints the end-to-end metrics;
// --trace 1 adds the traced pass (timing decorator, spans, codec replay) and
// prints the per-layer metrics. Both run the workload's correctness checks.
// Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit codes: 0 ok, 1 a correctness check failed, 2 usage, 3 the workload is
// unavailable on this host (no result printed), 4 an unexpected error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "perfbench.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload sim-mixed|sim-chaos|live-os --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

std::string jsonResult(const perfbench::RunResult& result) {
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& metric = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.value);
        json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metric.unit + "\"}";
    }
    return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions options;
    bool haveWorkload = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = value == "1";
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (!haveWorkload || argc % 2 == 0 || !(options.seconds > 0)) return usage();

    starlink::setLogLevel(starlink::LogLevel::Off);
    perfbench::RunResult result;
    try {
        if (options.workload == "sim-mixed" || options.workload == "sim-chaos") {
            result = perfbench::runSimWorkload(options);
        } else if (options.workload == "live-os") {
            result = perfbench::runLiveWorkload(options);
        } else {
            return usage();
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 4;
    }

    std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
    if (!result.available) return 3;
    for (const perfbench::Metric& metric : result.metrics) {
        if (!std::isfinite(metric.value)) {
            std::printf("  metric %s is not finite\n", metric.name.c_str());
            result.correct = false;
        }
        std::printf("  %-40s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    for (perfbench::Metric& metric : result.metrics) {
        if (!std::isfinite(metric.value)) metric.value = 0;
    }
    std::printf("%s\n", jsonResult(result).c_str());
    return result.correct ? 0 : 1;
}
