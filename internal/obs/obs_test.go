package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", k, b, err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
		if strings.Contains(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no_such_kind"`), &k); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if err := json.Unmarshal([]byte(`17`), &k); err == nil {
		t.Fatal("non-string kind accepted")
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("out-of-range kind string %q", got)
	}
	if got := MapOp(99).String(); got != "op(99)" {
		t.Fatalf("out-of-range map op string %q", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindInject}) // must not panic
	if tr.Enabled() || tr.Emitted() != 0 || tr.Recent() != nil || tr.Flush() != nil {
		t.Fatal("nil tracer is not inert")
	}
}

func TestTracerRingAndSinks(t *testing.T) {
	mem := NewMemSink()
	tr := NewTracer(4, mem)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i), Kind: KindStageEnter, Seq: int64(i)})
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted %d, want 10", tr.Emitted())
	}
	// The ring keeps the last 4; the sink saw everything.
	recent := tr.Recent()
	if len(recent) != 4 || recent[0].Cycle != 6 || recent[3].Cycle != 9 {
		t.Fatalf("ring contents %v", recent)
	}
	if len(mem.Events()) != 10 {
		t.Fatalf("sink saw %d events", len(mem.Events()))
	}

	// A partially filled ring returns only what was emitted.
	tr2 := NewTracer(0)
	tr2.Emit(Event{Cycle: 1})
	tr2.Emit(Event{Cycle: 2})
	if got := tr2.Recent(); len(got) != 2 || got[0].Cycle != 1 {
		t.Fatalf("partial ring %v", got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	want := []Event{
		{Cycle: 3, Kind: KindInject, Seq: 0, Stage: NoStage, Map: NoMap, Aux: 64, Aux2: 1},
		{Cycle: 4, Kind: KindMapAccess, Seq: 0, Stage: 2, Map: 1, Aux: uint64(MapOpLookup)},
		{Cycle: 9, Kind: KindVerdict, Seq: 0, Stage: 7, Map: NoMap, Aux: 2, Aux2: 6},
	}
	for _, ev := range want {
		sink.Record(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLDeterminism(t *testing.T) {
	evs := []Event{
		{Cycle: 1, Kind: KindStageEnter, Seq: 4, Stage: 0, Map: NoMap},
		{Cycle: 2, Kind: KindFlushBegin, Seq: NoSeq, Stage: 5, Map: 0, Aux: 2, Aux2: 3},
	}
	render := func() string {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		for _, ev := range evs {
			s.Record(ev)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("JSONL encoding is not deterministic")
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTextSink(&buf)
	sink.Record(Event{Cycle: 12, Kind: KindPredicate, Seq: 3, Stage: 2, Map: NoMap, Aux: 1, Aux2: 7})
	sink.Record(Event{Cycle: 13, Kind: KindPredicate, Seq: 3, Stage: 2, Map: NoMap, Aux: 0, Aux2: NoBlock})
	sink.Record(Event{Cycle: 14, Kind: KindMapAccess, Seq: 3, Stage: 4, Map: 0, Aux: uint64(MapOpAtomic)})
	sink.Record(Event{Cycle: 20, Kind: KindVerdict, Seq: 3, Stage: 9, Map: NoMap, Aux: 2, Aux2: 8})
	sink.Record(Event{Cycle: 22, Kind: KindScrub, Seq: NoSeq, Stage: NoStage, Map: NoMap, Aux: 128, Aux2: 1})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"predicate", "taken", "->b7", "fall", "atomic", "action=2 lat=8", "a=128 b=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}
