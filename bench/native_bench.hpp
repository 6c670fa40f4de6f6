// Shared native-protocol benchmark runs (Fig 12(a) measurements), used by
// the fig12a harness directly and by fig12b to compute the paper's
// "percentage increase in response time" comparison.
//
// The drive loop goes through net::Network::runUntil, so the measurement
// harness itself is backend-generic; only the construction (and the virtual
// clock that makes the numbers deterministic) names the sim.
#pragma once

#include "net/sim_network.hpp"
#include "protocols/peers.hpp"
#include "stats.hpp"

namespace starlink::bench {

/// Virtual-time budget for one lookup round; native discovery converges in
/// well under a second, so hitting this means the round livelocked.
inline const net::Duration kLookupBudget = net::ms(30000);

/// `repetitions` lookups from a `protocol` client to a `protocol` service,
/// no bridge in between.
inline Summary benchNative(peers::Protocol protocol, int repetitions) {
    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler);
    net::Network& net = network;
    peers::Service service(net, protocol);
    peers::Client client(net, protocol);
    std::vector<double> samples;
    for (int i = 0; i < repetitions; ++i) {
        bool settled = false;
        client.lookup([&samples, &settled](const peers::Client::Result& result) {
            if (!result.urls.empty()) samples.push_back(toMs(result.elapsed));
            settled = true;
        });
        net.runUntil([&settled] { return settled; }, kLookupBudget);
        scheduler.runUntilIdle();  // drain stragglers so rounds stay independent
    }
    return summarize(std::move(samples));
}

}  // namespace starlink::bench
