// Tests for the trace recorder and for the CLI flag parser.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/cli.h"

namespace abe {
namespace {

TEST(Trace, FlightRecorderAlwaysOn) {
  // The flight recorder records even before enable(): a small always-on
  // ring so failing trials can dump recent history without pre-enabling.
  Trace trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(1.0, TraceKind::kSend, NodeId{0}, "x");
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.count(TraceKind::kSend), 1u);
  EXPECT_EQ(trace.capacity(), Trace::kFlightCapacity);
}

TEST(Trace, EnableRaisesCapacity) {
  Trace trace;
  trace.enable();
  EXPECT_TRUE(trace.enabled());
  EXPECT_EQ(trace.capacity(), Trace::kFullCapacity);
}

TEST(Trace, RingWrapsAndKeepsNewest) {
  Trace trace;  // lite mode: capacity kFlightCapacity
  const std::size_t cap = Trace::kFlightCapacity;
  for (std::size_t i = 0; i < cap + 10; ++i) {
    trace.record(static_cast<double>(i), TraceKind::kSend, NodeId{0},
                 static_cast<std::int64_t>(i));
  }
  const auto events = trace.events();
  ASSERT_EQ(events.size(), cap);
  // Oldest retained is the 11th record; newest is the last; chronological.
  EXPECT_EQ(events.front().arg, 10);
  EXPECT_EQ(events.back().arg, static_cast<std::int64_t>(cap + 9));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
  // Counts are monotonic over the whole run, eviction included.
  EXPECT_EQ(trace.count(TraceKind::kSend), cap + 10);
  EXPECT_EQ(trace.total_recorded(), cap + 10);
  EXPECT_EQ(trace.evicted(), 10u);
}

TEST(Trace, SetCapacityRelinearizesKeepingNewest) {
  Trace trace;
  for (int i = 0; i < 20; ++i) {
    trace.record(static_cast<double>(i), TraceKind::kTick, NodeId{0},
                 static_cast<std::int64_t>(i));
  }
  trace.set_capacity(5);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().arg, 15);
  EXPECT_EQ(events.back().arg, 19);
}

TEST(Trace, RecordsWhenEnabled) {
  Trace trace;
  trace.enable();
  trace.record(1.0, TraceKind::kSend, NodeId{0}, "a");
  trace.record(2.0, TraceKind::kDeliver, NodeId{1}, "b");
  trace.record(3.0, TraceKind::kSend, NodeId{0}, "c");
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.count(TraceKind::kSend), 2u);
  EXPECT_EQ(trace.count(TraceKind::kDeliver), 1u);
  EXPECT_EQ(trace.count(TraceKind::kDrop), 0u);
}

TEST(Trace, FilterAndForNode) {
  Trace trace;
  trace.enable();
  trace.record(1.0, TraceKind::kSend, NodeId{0}, "a");
  trace.record(2.0, TraceKind::kTick, NodeId{1}, "b");
  trace.record(3.0, TraceKind::kSend, NodeId{1}, "c");
  const auto sends = trace.filter(TraceKind::kSend);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[1].detail, "c");
  const auto node1 = trace.for_node(NodeId{1});
  ASSERT_EQ(node1.size(), 2u);
  EXPECT_EQ(node1[0].kind, TraceKind::kTick);
}

TEST(Trace, ToStringAndClear) {
  Trace trace;
  trace.enable();
  trace.record(1.5, TraceKind::kStateChange, NodeId{3}, "idle->active");
  const std::string s = trace.to_string();
  EXPECT_NE(s.find("STATE"), std::string::npos);
  EXPECT_NE(s.find("idle->active"), std::string::npos);
  EXPECT_NE(s.find("node=3"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, KindNamesDistinct) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kSend), "SEND");
  EXPECT_STREQ(trace_kind_name(TraceKind::kDrop), "DROP");
  EXPECT_STREQ(trace_kind_name(TraceKind::kRoundStart), "ROUND");
}

TEST(Trace, KindNamesExhaustive) {
  // Every kind in [0, kTraceKindCount) must have a distinct, non-empty
  // name — adding an enumerator without extending trace_kind_name (or
  // kTraceKindCount) is the regression this pins.
  std::set<std::string> names;
  for (std::size_t i = 0; i < kTraceKindCount; ++i) {
    const char* name = trace_kind_name(static_cast<TraceKind>(i));
    ASSERT_NE(name, nullptr) << "kind " << i;
    EXPECT_FALSE(std::string(name).empty()) << "kind " << i;
    EXPECT_NE(std::string(name), "?") << "kind " << i;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kTraceKindCount) << "duplicate kind names";
}

TEST(Trace, RecordReturnsDenseIds) {
  Trace trace;
  const std::int64_t a = trace.record(1.0, TraceKind::kSend, NodeId{0});
  const std::int64_t b =
      trace.record(2.0, TraceKind::kDeliver, NodeId{1}, /*arg=*/7,
                   /*cause=*/a, /*delay=*/0.5, /*work=*/0.25);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(trace.next_id(), 2);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, a);
  EXPECT_EQ(events[1].id, b);
  EXPECT_EQ(events[1].cause, a);
  EXPECT_DOUBLE_EQ(events[1].delay, 0.5);
  EXPECT_DOUBLE_EQ(events[1].work, 0.25);
  // Ids survive eviction: they index the record stream, not the ring.
  for (std::size_t i = 0; i < Trace::kFlightCapacity; ++i) {
    trace.record(3.0, TraceKind::kTick, NodeId{0});
  }
  EXPECT_EQ(trace.events().front().id,
            static_cast<std::int64_t>(trace.evicted()));
}

TEST(Trace, ToStringShowsCause) {
  Trace trace;
  trace.enable();
  const std::int64_t cause = trace.record(1.0, TraceKind::kSend, NodeId{0});
  trace.record(2.0, TraceKind::kDeliver, NodeId{1}, /*arg=*/-1, cause);
  const std::string s = trace.to_string();
  EXPECT_NE(s.find("<-#0"), std::string::npos) << s;
}

TEST(Trace, FilterAfterEviction) {
  // filter() reserves from the per-kind count clamped to the retained ring
  // (the count includes evicted records); the result must hold exactly the
  // retained matches.
  Trace trace;  // lite: 256-slot ring
  const std::size_t total = Trace::kFlightCapacity * 2;
  for (std::size_t i = 0; i < total; ++i) {
    trace.record(static_cast<double>(i),
                 i % 2 == 0 ? TraceKind::kSend : TraceKind::kDeliver,
                 NodeId{0}, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(trace.count(TraceKind::kSend), total / 2);
  const auto sends = trace.filter(TraceKind::kSend);
  EXPECT_EQ(sends.size(), Trace::kFlightCapacity / 2);
  for (const TraceEvent& e : sends) EXPECT_EQ(e.kind, TraceKind::kSend);
}

// Details live in a side vector parallel to the ring; these cases pin that
// each detail stays with its own record through activation, wraparound,
// shrinking and clear().

// The detail record i carries in the alignment cases below.
std::string detail_of(std::int64_t i) { return "d" + std::to_string(i); }

// Every retained event carries detail_of(arg) when `has_detail(arg)`, and an
// empty detail otherwise.
template <typename HasDetail>
void expect_details_aligned(const Trace& trace, HasDetail has_detail) {
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), trace.size());
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.detail, has_detail(e.arg) ? detail_of(e.arg) : "")
        << "arg " << e.arg;
  }
}

TEST(Trace, FirstDetailIntoEmptyRingIsKept) {
  Trace trace;  // lite: the first record ever carries the first detail
  trace.record(1.0, TraceKind::kCustom, NodeId{0}, "first", /*arg=*/0);
  trace.record(2.0, TraceKind::kSend, NodeId{1}, /*arg=*/1);
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "first");
  EXPECT_EQ(events[1].detail, "");
  EXPECT_NE(trace.to_string().find("first"), std::string::npos);
}

TEST(Trace, LiteAndDetailRecordsStayAlignedAcrossWraparound) {
  const std::size_t cap = Trace::kFlightCapacity;
  const auto every_third = [](std::int64_t i) { return i % 3 == 0; };
  Trace trace;
  for (std::int64_t i = 1; i < static_cast<std::int64_t>(2 * cap + 7); ++i) {
    if (every_third(i)) {
      trace.record(static_cast<double>(i), TraceKind::kCustom, NodeId{0},
                   detail_of(i), i);
    } else {
      trace.record(static_cast<double>(i), TraceKind::kSend, NodeId{0}, i);
    }
  }
  ASSERT_EQ(trace.size(), cap);
  expect_details_aligned(trace, every_third);
  const std::vector<TraceEvent> custom = trace.filter(TraceKind::kCustom);
  ASSERT_FALSE(custom.empty());
  for (const TraceEvent& e : custom) EXPECT_EQ(e.detail, detail_of(e.arg));

  // The first detail arriving once the ring is full and wrapped.
  Trace wrapped;
  const auto only_last = [cap](std::int64_t i) {
    return i == static_cast<std::int64_t>(cap + 40);
  };
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(cap + 40); ++i) {
    wrapped.record(static_cast<double>(i), TraceKind::kSend, NodeId{0}, i);
  }
  const std::int64_t last = static_cast<std::int64_t>(cap + 40);
  wrapped.record(1e3, TraceKind::kCustom, NodeId{0}, detail_of(last), last);
  ASSERT_EQ(wrapped.size(), cap);
  EXPECT_EQ(wrapped.events().back().detail, detail_of(last));
  expect_details_aligned(wrapped, only_last);
}

TEST(Trace, ShrinkingCapacityKeepsEachDetailWithItsRecord) {
  const auto odd = [](std::int64_t i) { return i % 2 == 1; };
  Trace trace;
  trace.set_capacity(8);
  for (std::int64_t i = 0; i < 21; ++i) {  // wraps the 8-slot ring twice
    if (odd(i)) {
      trace.record(static_cast<double>(i), TraceKind::kCustom, NodeId{0},
                   detail_of(i), i);
    } else {
      trace.record(static_cast<double>(i), TraceKind::kTick, NodeId{0}, i);
    }
  }
  trace.set_capacity(5);
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().arg, 16);
  EXPECT_EQ(events.back().arg, 20);
  expect_details_aligned(trace, odd);
  // Growing again and wrapping the new ring keeps the pairing too.
  trace.set_capacity(7);
  for (std::int64_t i = 21; i < 40; ++i) {
    if (odd(i)) {
      trace.record(static_cast<double>(i), TraceKind::kCustom, NodeId{0},
                   detail_of(i), i);
    } else {
      trace.record(static_cast<double>(i), TraceKind::kTick, NodeId{0}, i);
    }
  }
  ASSERT_EQ(trace.size(), 7u);
  EXPECT_EQ(trace.events().front().arg, 33);
  expect_details_aligned(trace, odd);
}

TEST(Trace, ClearedRingCarriesEmptyDetailsForLiteRecords) {
  Trace trace;
  for (std::int64_t i = 0; i < 10; ++i) {
    trace.record(static_cast<double>(i), TraceKind::kCustom, NodeId{0},
                 detail_of(i), i);
  }
  trace.clear();
  for (std::int64_t i = 0; i < 4; ++i) {
    trace.record(static_cast<double>(i), TraceKind::kSend, NodeId{0}, i);
  }
  expect_details_aligned(trace, [](std::int64_t) { return false; });
  EXPECT_EQ(trace.to_string().find(" d"), std::string::npos)
      << trace.to_string();
}

// ---------------------------------------------------------------------

CliFlags parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  for (auto& s : storage) argv.push_back(s.data());
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const CliFlags flags = parse({"prog", "--n=32", "--rate=0.5"});
  EXPECT_EQ(flags.get_int("n", 0), 32);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 0.5);
}

TEST(Cli, SpaceForm) {
  const CliFlags flags = parse({"prog", "--n", "32", "--name", "ring"});
  EXPECT_EQ(flags.get_int("n", 0), 32);
  EXPECT_EQ(flags.get_string("name", ""), "ring");
}

TEST(Cli, BareBooleanAndExplicit) {
  const CliFlags flags = parse({"prog", "--verbose", "--fast=false"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_FALSE(flags.get_bool("fast", true));
  EXPECT_TRUE(flags.get_bool("absent", true));
}

TEST(Cli, DefaultsWhenMissing) {
  const CliFlags flags = parse({"prog"});
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get_string("s", "d"), "d");
  EXPECT_FALSE(flags.has("n"));
}

TEST(Cli, PositionalArguments) {
  const CliFlags flags = parse({"prog", "one", "--k=2", "two"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "one");
  EXPECT_EQ(flags.positional()[1], "two");
  EXPECT_EQ(flags.program(), "prog");
}

TEST(Cli, NegativeNumberAsValue) {
  const CliFlags flags = parse({"prog", "--offset=-5"});
  EXPECT_EQ(flags.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace abe
