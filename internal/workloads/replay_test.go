package workloads

import (
	"strings"
	"testing"
	"time"
)

const sampleTrace = `
# two ranks, mixed ops
0,compute,1000
0,read,data.bin,0,4096
0,barrier
0,write,out.bin,0,1024
1,compute,2000
1,read,data.bin,8192,4096
1,barrier
`

func TestParseTraceBasics(t *testing.T) {
	rep, err := ParseTrace("t", strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks() != 2 {
		t.Fatalf("ranks = %d, want 2", rep.Ranks())
	}
	g := rep.NewRank(0)
	ops := drain(t, g, 100)
	if len(ops) != 4 {
		t.Fatalf("rank 0 ops = %d, want 4", len(ops))
	}
	if ops[0].Kind != OpCompute || ops[0].Dur != time.Millisecond {
		t.Fatalf("op 0 = %+v", ops[0])
	}
	if ops[1].Kind != OpRead || ops[1].Extents[0].Off != 0 || ops[1].Extents[0].Len != 4096 {
		t.Fatalf("op 1 = %+v", ops[1])
	}
	if ops[2].Kind != OpBarrier {
		t.Fatalf("op 2 = %+v", ops[2])
	}
	if ops[3].Kind != OpWrite || ops[3].File != "out.bin" {
		t.Fatalf("op 3 = %+v", ops[3])
	}
}

func TestParseTraceFileSpecs(t *testing.T) {
	rep, err := ParseTrace("t", strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	files := rep.Files()
	if len(files) != 2 {
		t.Fatalf("files = %+v", files)
	}
	// data.bin is read up to offset 12288 -> precreated at that size.
	if files[0].Name != "data.bin" || !files[0].Precreate || files[0].Size != 12288 {
		t.Fatalf("data.bin spec = %+v", files[0])
	}
	if files[1].Name != "out.bin" || files[1].Precreate {
		t.Fatalf("out.bin spec = %+v", files[1])
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"x,read,f,0,1",            // bad rank
		"0,frobnicate",            // unknown verb
		"0,compute",               // missing duration
		"0,compute,xyz",           // bad duration
		"0,read,f,0",              // missing length
		"0,read,f,-1,10",          // negative offset
		"0,read,f,0,0",            // zero length
		"",                        // empty trace
		"0,barrier\n1,read,f,0,1", // mismatched barrier counts
	}
	for i, c := range cases {
		if _, err := ParseTrace("t", strings.NewReader(c)); err == nil {
			t.Fatalf("case %d (%q): parsed", i, c)
		}
	}
}

func TestReplayCloneIndependent(t *testing.T) {
	rep, err := ParseTrace("t", strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	g := rep.NewRank(0)
	g.Next(TrueEnv{})
	c := g.Clone(nil)
	a := g.Next(TrueEnv{})
	b := c.Next(TrueEnv{})
	if a.Kind != b.Kind {
		t.Fatalf("clone diverged: %v vs %v", a.Kind, b.Kind)
	}
	c.Next(TrueEnv{})
	// Original must be unaffected by the clone's progress.
	if op := g.Next(TrueEnv{}); op.Kind != OpBarrier {
		t.Fatalf("original disturbed: %+v", op)
	}
}

func TestReplayDoneSticky(t *testing.T) {
	rep, err := ParseTrace("t", strings.NewReader("0,compute,10"))
	if err != nil {
		t.Fatal(err)
	}
	g := rep.NewRank(0)
	g.Next(TrueEnv{})
	if g.Next(TrueEnv{}).Kind != OpDone || g.Next(TrueEnv{}).Kind != OpDone {
		t.Fatalf("OpDone not sticky")
	}
}
