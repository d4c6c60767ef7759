// A timestamped intake-event log: the on-disk form of a stamped event
// stream (serving/event_source.h).
//
// Format (line-oriented text, one event per line, '#' comments allowed):
//
//   # foodmatch-event-log-v1
//   V,<seq>,<ts>,<vehicle>,<node>,<on_duty 0|1>
//   O,<seq>,<ts>,<order>,<restaurant>,<customer>,<items>,<prep_time>
//   D,<seq>,<ts>,<order>,<vehicle>
//   R,<seq>,<ts>,<vehicle>
//
// `ts` and `prep_time` are seconds (decimal); ids and nodes are the dense
// integer ids used everywhere else. An O line's ts doubles as the order's
// placed_at — the log stores each order exactly once. V lines announce or
// refresh a vehicle at a bare node (no carried orders — a log captures the
// gateway-facing stream, not engine internals).
//
// Lines must be sorted by (ts, seq) with unique seq, i.e. the log IS the
// canonical stream order; ReadEventLog verifies this. fmserve replays a
// log through the streaming intake at wall-clock or accelerated rate;
// `fmserve --write-log` (and WriteEventLog here) produce one from any
// stamped stream, so a canonical city scenario can be logged once and
// replayed forever.
#ifndef FOODMATCH_SERVING_EVENT_LOG_H_
#define FOODMATCH_SERVING_EVENT_LOG_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine_event.h"

namespace fm {

// Serializes `events` (any stamped stream) to `path`. Aborts (FM_CHECK) if
// the file cannot be opened for writing.
void WriteEventLog(const std::string& path,
                   const std::vector<StampedEvent>& events);

// Parses an event log recorded against a network of `num_nodes` nodes.
// Aborts (FM_CHECK, naming the line) on an unreadable file, a malformed
// line, characters after a line's last field, a node id (V node, O
// restaurant or customer) >= `num_nodes`, or a stream that is not sorted by
// (ts, seq) — a corrupt log must fail loudly, not replay subtly wrong or
// crash inside the oracle.
std::vector<StampedEvent> ReadEventLog(const std::string& path,
                                       std::size_t num_nodes);

}  // namespace fm

#endif  // FOODMATCH_SERVING_EVENT_LOG_H_
