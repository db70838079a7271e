package memctrl

import (
	"slices"
	"testing"

	"vsnoop/internal/mem"
	"vsnoop/internal/token"
)

// tableLine is one ForEachLine record.
type tableLine struct {
	a      mem.BlockAddr
	tokens int
	owner  bool
}

func dumpTable(m *Ctrl) []tableLine {
	var out []tableLine
	m.ForEachLine(func(a mem.BlockAddr, tokens int, owner bool) {
		out = append(out, tableLine{a, tokens, owner})
	})
	return out
}

func chunksAllocated(m *Ctrl) int {
	n := 0
	for _, c := range m.lines {
		if c != nil {
			n++
		}
	}
	return n
}

// TestReadersLeaveTableUnchanged pins Tokens, Peek and ForEachLine as
// read-only: asking about a block never materializes its line or
// allocates a chunk.
func TestReadersLeaveTableUnchanged(t *testing.T) {
	r := newRig(t)
	r.send(token.Msg{Kind: token.MsgGetS, Addr: 10})

	before := dumpTable(r.mc)
	chunks, span := chunksAllocated(r.mc), len(r.mc.lines)

	if tok, own := r.mc.Tokens(10); tok != r.p.TotalTokens-1 || !own {
		t.Fatalf("Tokens(10) = (%d, %v), want (%d, true)", tok, own, r.p.TotalTokens-1)
	}
	for _, a := range []mem.BlockAddr{11, 5000, 1 << 30} {
		if tok, own := r.mc.Tokens(a); tok != r.p.TotalTokens || !own {
			t.Fatalf("Tokens(%d) of a reset block = (%d, %v), want (%d, true)", a, tok, own, r.p.TotalTokens)
		}
		if _, _, present := r.mc.Peek(a); present {
			t.Fatalf("Peek(%d) reports a line that was never touched", a)
		}
	}
	if after := dumpTable(r.mc); !slices.Equal(after, before) {
		t.Fatalf("readers changed the table: %v -> %v", before, after)
	}
	if chunksAllocated(r.mc) != chunks || len(r.mc.lines) != span {
		t.Fatalf("readers grew the table: chunks %d->%d, span %d->%d",
			chunks, chunksAllocated(r.mc), span, len(r.mc.lines))
	}
}

// TestTableStrideOrder drives a controller homing every fourth block:
// ForEachLine reports lines in ascending address order across chunks, and
// a block homed elsewhere is rejected.
func TestTableStrideOrder(t *testing.T) {
	r := newRig(t)
	r.mc.Stride = 4
	addrs := []mem.BlockAddr{4*chunkSize*3 + 2, 6, 2, 4*chunkSize + 2}
	for _, a := range addrs {
		r.send(token.Msg{Kind: token.MsgGetS, Addr: a})
	}
	got := dumpTable(r.mc)
	want := []mem.BlockAddr{2, 6, 4*chunkSize + 2, 4*chunkSize*3 + 2}
	if len(got) != len(want) {
		t.Fatalf("ForEachLine saw %v, want addresses %v", got, want)
	}
	for i, l := range got {
		if l.a != want[i] || l.tokens != r.p.TotalTokens-1 || !l.owner {
			t.Fatalf("line %d = %+v, want block %d with %d tokens and the owner token", i, l, want[i], r.p.TotalTokens-1)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a block homed at another controller was accepted")
		}
	}()
	r.mc.Handle(token.Msg{Kind: token.MsgGetS, Addr: 5, Src: r.req})
}
