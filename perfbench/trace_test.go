package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimeFromNestedSpans checks that a span's self time excludes
// the union of its children, counting overlapping children once and
// clipping children that outlive it.
func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // ends after root
		{ID: 5, Parent: 3, Name: "b.1", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]int64{
		1: 100 - 40 - 10, // [10,50) and [90,100) covered
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 7,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
	if s := selfSeconds(spans, got, "b"); len(s) != 1 || s[0] != 20e-9 {
		t.Errorf("selfSeconds(b) = %v", s)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", "", 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)

	tr := newTracer()
	root := tr.begin("root", "req:1", 0)
	t0 := time.Now()
	child := tr.record("child", "req:1", root, t0, t0.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].dur() != int64(time.Millisecond) {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	if _, err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var read []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		read = append(read, s)
	}
	if len(read) != 2 || read[1] != spans[1] || read[0].Group != "req:1" {
		t.Errorf("read back %+v, want %+v", read, spans)
	}
}
