package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceNestingAndTree(t *testing.T) {
	tr := NewTrace("query")
	plan := tr.Start("plan")
	plan.SetAttr("ops", 24)
	plan.End()
	exec := tr.Start("execute")
	child := exec.Start("stored view{product}")
	child.SetAttr("cells", 8)
	child.End()
	exec.SetAttr("ops", 24)
	exec.End()
	tr.Finish()

	tree := tr.Tree()
	if tree == nil || tree.Name != "query" {
		t.Fatalf("tree root = %+v", tree)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root children = %d", len(tree.Children))
	}
	if tree.Children[0].Name != "plan" || tree.Children[0].Attrs["ops"] != 24 {
		t.Fatalf("plan child = %+v", tree.Children[0])
	}
	if tree.Children[1].Children[0].Name != "stored view{product}" {
		t.Fatalf("execute child = %+v", tree.Children[1])
	}
	if got := tree.SumAttr("ops"); got != 48 {
		t.Fatalf("SumAttr(ops) = %d", got)
	}
	if got := tree.SumAttr("cells"); got != 8 {
		t.Fatalf("SumAttr(cells) = %d", got)
	}

	// The tree must round-trip through JSON with the documented keys.
	buf, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"query"`, `"duration_us"`, `"attrs"`, `"children"`} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("JSON missing %s: %s", want, buf)
		}
	}

	out := tr.String()
	if !strings.Contains(out, "query (") || !strings.Contains(out, "  plan (") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTraceAddAttr(t *testing.T) {
	tr := NewTrace("q")
	s := tr.Start("range_sum")
	s.AddAttr("cells_read", 3)
	s.AddAttr("cells_read", 4)
	s.End()
	tr.Finish()
	if got := tr.Tree().SumAttr("cells_read"); got != 7 {
		t.Fatalf("cells_read = %d", got)
	}
}

func TestNilTraceNoops(t *testing.T) {
	var tr *Trace
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil trace must hand out nil spans")
	}
	s.SetAttr("a", 1)
	s.AddAttr("a", 1)
	s.End()
	if s.Start("child") != nil {
		t.Fatal("nil span must hand out nil children")
	}
	s.Graft(&Span{Name: "n"})
	tr.Finish()
	if tr.Tree() != nil || tr.String() != "" || tr.Dropped() != 0 || tr.ID() != 0 {
		t.Fatal("nil trace must render empty")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("root")
	for i := 0; i < MaxSpans+10; i++ {
		sp := tr.Start("s")
		sp.End()
	}
	tr.Finish()
	if tr.Dropped() != 11 { // root counts toward the cap
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	if !strings.Contains(tr.String(), "spans dropped") {
		t.Fatal("render should mention dropped spans")
	}
}

// TestTraceConcurrentAttach exercises the concurrency-safe span tree: many
// goroutines open, annotate, and close children of the same parent at once.
// Run under -race this pins that traced queries need no serial fallback.
func TestTraceConcurrentAttach(t *testing.T) {
	tr := NewTrace("query")
	exec := tr.Start("execute")
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := grandchild(exec)
				sp.AddAttr("ops", 2)
				sp.End()
			}
		}()
	}
	wg.Wait()
	exec.End()
	tr.Finish()

	tree := tr.Tree()
	execNode := tree.Children[0]
	if len(execNode.Children) != workers*perWorker {
		t.Fatalf("children = %d, want %d", len(execNode.Children), workers*perWorker)
	}
	if got := tree.SumAttr("ops"); got != workers*perWorker*2 {
		t.Fatalf("SumAttr(ops) = %d", got)
	}
}

func grandchild(parent *Span) *Span {
	sp := parent.Start("synthesize")
	inner := sp.Start("stored")
	inner.End()
	return sp
}

func TestSpanIDsAndParents(t *testing.T) {
	tr := NewTrace("q")
	a := tr.Start("a")
	b := a.Start("b")
	root := tr.Tree()
	if root != tr.Root() || len(root.Children) != 1 || root.Children[0] != a {
		t.Fatalf("root = %+v, want the root span with child a", root)
	}
	if len(a.Children) != 1 || a.Children[0] != b || len(b.Children) != 0 {
		t.Fatalf("a's children = %+v, want [b]", a.Children)
	}
	if tr.ID() == 0 || tr.ID() == NewTrace("q2").ID() {
		t.Fatal("trace IDs must be unique and nonzero")
	}
}

func TestGraft(t *testing.T) {
	tr := NewTrace("coordinator")
	leg := tr.Start("shard a")
	sub := &Span{
		Name:       "groupby product",
		DurationUS: 120,
		Attrs:      map[string]int64{"ops": 24},
		Children: []*Span{
			{Name: "stored", DurationUS: 40, Attrs: map[string]int64{"cells": 8}},
		},
	}
	leg.Graft(sub)
	leg.End()
	tr.Finish()

	tree := tr.Tree()
	got := tree.Children[0].Children[0]
	if got.Name != "groupby product" || got.DurationUS != 120 || got.Attrs["ops"] != 24 {
		t.Fatalf("grafted node = %+v", got)
	}
	if len(got.Children) != 1 || got.Children[0].Attrs["cells"] != 8 {
		t.Fatalf("grafted child = %+v", got.Children[0])
	}
	if tree.SumAttr("ops") != 24 || tree.SumAttr("cells") != 8 {
		t.Fatalf("grafted attrs lost: %s", tr.String())
	}
}

func TestGraftHonorsCap(t *testing.T) {
	tr := NewTrace("root")
	for tr.Spans() < MaxSpans {
		tr.Start("fill")
	}
	leg := tr.Root()
	leg.Graft(&Span{Name: "over", Children: []*Span{{Name: "child"}}})
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

// TestSpanIsTheContext: work handed a span nests its spans under it, and a
// nil span — an untraced read, or a span dropped over the cap — records
// nothing below it.
func TestSpanIsTheContext(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.Root().Start("execute")
	child := sp.Start("synthesize")
	if len(sp.Children) != 1 || sp.Children[0] != child {
		t.Fatalf("Start must nest: execute's children = %+v", sp.Children)
	}
	var untraced *Span
	if untraced.Start("x") != nil || tr.Spans() != 3 {
		t.Fatalf("a nil span must open nothing: %d spans", tr.Spans())
	}
	if (*Trace)(nil).Root() != nil {
		t.Fatal("a nil trace's root must be nil")
	}
}

func TestRenderNode(t *testing.T) {
	n := &Span{Name: "query", DurationUS: 1500, Attrs: map[string]int64{"ops": 3},
		Children: []*Span{{Name: "plan", DurationUS: 200}}}
	out := RenderNode(n)
	if !strings.Contains(out, "query (1.5ms) ops=3") || !strings.Contains(out, "  plan (") {
		t.Fatalf("render:\n%s", out)
	}
}
