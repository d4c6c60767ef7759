#include "serving/event_log.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <variant>

#include "common/check.h"

namespace fm {

namespace {

struct LineWriter {
  std::ostream& out;
  const StampedEvent& stamped;

  void operator()(const VehicleStateUpdate& e) const {
    out << "V," << stamped.sequence << ',' << stamped.timestamp << ','
        << e.snapshot.id << ',' << e.snapshot.location << ','
        << (e.on_duty ? 1 : 0) << '\n';
  }
  void operator()(const OrderPlaced& e) const {
    out << "O," << stamped.sequence << ',' << stamped.timestamp << ','
        << e.order.id << ',' << e.order.restaurant << ',' << e.order.customer
        << ',' << e.order.items << ',' << e.order.prep_time << '\n';
  }
  void operator()(const OrderDelivered& e) const {
    out << "D," << stamped.sequence << ',' << stamped.timestamp << ','
        << e.order << ',' << e.vehicle << '\n';
  }
  void operator()(const VehicleRetired& e) const {
    out << "R," << stamped.sequence << ',' << stamped.timestamp << ','
        << e.vehicle << '\n';
  }
};

}  // namespace

void WriteEventLog(const std::string& path,
                   const std::vector<StampedEvent>& events) {
  std::ofstream out(path);
  FM_CHECK_MSG(out.good(), "cannot open event log for writing");
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# foodmatch-event-log-v1\n";
  for (const StampedEvent& stamped : events) {
    std::visit(LineWriter{out, stamped}, stamped.event);
  }
  FM_CHECK_MSG(out.good(), "event log write failed");
}

std::vector<StampedEvent> ReadEventLog(const std::string& path,
                                       std::size_t num_nodes) {
  std::ifstream in(path);
  FM_CHECK_MSG(in.good(), "cannot open event log for reading");
  std::vector<StampedEvent> events;
  std::string line;
  int line_number = 0;
  const auto check_node = [&](unsigned long long node) {
    FM_CHECK_MSG(node < num_nodes, "event log line "
                                       << line_number << ": node id " << node
                                       << " out of range (network has "
                                       << num_nodes << " nodes)");
    return static_cast<NodeId>(node);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    unsigned long long seq = 0;
    double ts = 0.0;
    // Characters the format consumed; %n stores it only if every field
    // before it parsed.
    int consumed = -1;
    StampedEvent stamped;
    bool ok = false;
    switch (line[0]) {
      case 'V': {
        unsigned vehicle = 0;
        unsigned long long node = 0;
        int on_duty = 0;
        ok = std::sscanf(line.c_str(), "V,%llu,%lf,%u,%llu,%d%n", &seq, &ts,
                         &vehicle, &node, &on_duty, &consumed) == 5;
        if (ok) {
          VehicleSnapshot snap;
          snap.id = static_cast<VehicleId>(vehicle);
          snap.location = check_node(node);
          snap.next_destination = snap.location;
          stamped.event = VehicleStateUpdate{snap, on_duty != 0};
        }
        break;
      }
      case 'O': {
        unsigned order = 0;
        unsigned long long restaurant = 0, customer = 0;
        int items = 0;
        double prep = 0.0;
        ok = std::sscanf(line.c_str(), "O,%llu,%lf,%u,%llu,%llu,%d,%lf%n",
                         &seq, &ts, &order, &restaurant, &customer, &items,
                         &prep, &consumed) == 7;
        if (ok) {
          Order o;
          o.id = static_cast<OrderId>(order);
          o.restaurant = check_node(restaurant);
          o.customer = check_node(customer);
          o.placed_at = ts;
          o.items = items;
          o.prep_time = prep;
          stamped.event = OrderPlaced{o};
        }
        break;
      }
      case 'D': {
        unsigned order = 0, vehicle = 0;
        ok = std::sscanf(line.c_str(), "D,%llu,%lf,%u,%u%n", &seq, &ts,
                         &order, &vehicle, &consumed) == 4;
        if (ok) {
          stamped.event = OrderDelivered{static_cast<OrderId>(order),
                                         static_cast<VehicleId>(vehicle)};
        }
        break;
      }
      case 'R': {
        unsigned vehicle = 0;
        ok = std::sscanf(line.c_str(), "R,%llu,%lf,%u%n", &seq, &ts, &vehicle,
                         &consumed) == 3;
        if (ok) stamped.event = VehicleRetired{static_cast<VehicleId>(vehicle)};
        break;
      }
      default:
        break;
    }
    FM_CHECK_MSG(ok, "malformed event log line " << line_number << ": "
                                                  << line);
    FM_CHECK_MSG(static_cast<std::size_t>(consumed) == line.size(),
                 "event log line " << line_number
                                   << ": characters after the last field: "
                                   << line);
    stamped.sequence = static_cast<std::uint64_t>(seq);
    stamped.timestamp = ts;
    if (!events.empty()) {
      FM_CHECK_MSG(StampedBefore(events.back(), stamped),
                   "event log line " << line_number
                                     << " not in (ts, seq) stream order");
    }
    events.push_back(std::move(stamped));
  }
  return events;
}

}  // namespace fm
