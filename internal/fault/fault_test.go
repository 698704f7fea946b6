package fault

import (
	"strings"
	"testing"
	"time"

	"dualpar/internal/sim"
)

func TestParse(t *testing.T) {
	sch, err := Parse("disk:1*10@5s-30s; stall:2@1s-2s, drop:102:0.2@0s-10s;link:3*4")
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{Kind: DiskSlow, Target: 1, Factor: 10, Start: 5 * time.Second, End: 30 * time.Second},
		{Kind: ServerStall, Target: 2, Factor: 1, Start: time.Second, End: 2 * time.Second},
		{Kind: LinkDrop, Target: 102, Factor: 1, Prob: 0.2, End: 10 * time.Second},
		{Kind: LinkSlow, Target: 3, Factor: 4},
	}
	checkParse(t, sch, want)
}

func TestParseCrash(t *testing.T) {
	sch, err := Parse("crash:2@5s; crash:4@1s-20s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{Kind: ServerCrash, Target: 2, Factor: 1, Start: 5 * time.Second},
		{Kind: ServerCrash, Target: 4, Factor: 1, Start: time.Second, End: 20 * time.Second},
	}
	checkParse(t, sch, want)
}

func TestParseClientCrash(t *testing.T) {
	sch, err := Parse("crash:client3@500ms; crash:client0@2s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{Kind: ClientCrash, Target: 3, Factor: 1, Start: 500 * time.Millisecond},
		{Kind: ClientCrash, Target: 0, Factor: 1, Start: 2 * time.Second},
	}
	checkParse(t, sch, want)
}

func checkParse(t *testing.T, sch *Schedule, want []Window) {
	t.Helper()
	if len(sch.Windows) != len(want) {
		t.Fatalf("parsed %d windows, want %d", len(sch.Windows), len(want))
	}
	for i, w := range want {
		if sch.Windows[i] != w {
			t.Errorf("window %d = %+v, want %+v", i, sch.Windows[i], w)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	sch, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Empty() {
		t.Fatalf("blank spec parsed to %+v", sch)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"melt:1*2",             // unknown kind
		"disk:1*0.5",           // factor < 1
		"drop:5",               // drop without probability
		"drop:5:1.5",           // probability out of range
		"stall:2",              // stall without an end
		"disk:1*10@30s-5s",     // end before start
		"disk:x*2",             // bad target
		"disk:1*2@later-5s",    // bad duration
		"slow:1:0.5",           // stray field on a non-drop kind
		"disk:1*",              // empty factor
		"disk:1*2@5s@30s",      // duplicate '@'
		"drop:5:-0.2",          // negative probability
		"disk:1*NaN",           // non-finite factor
		"disk:1*+Inf",          // non-finite factor
		"drop:5:NaN",           // non-finite probability
		"disk:1*2@1s--2s",      // negative end
		"stall:2*3@1s-2s",      // factor on a kind that takes none
		"crash:2*3@1s",         // factor on a kind that takes none
		"crash:2:0.5@1s",       // stray field on crash
		"crash:client3@1s-2s",  // client crash takes no recovery window
		"crash:client@1s",      // client crash without a rank
		"crash:clientX@1s",     // bad client rank
		"crash:client-1@1s",    // negative client rank
		"crash:client3*2@1s",   // factor on a kind that takes none
		"crash:client3:0.5@1s", // stray field on client crash
	} {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
			continue
		}
		// Every rejection names the offending entry.
		if !strings.Contains(err.Error(), strings.SplitN(spec, ";", 2)[0]) {
			t.Errorf("Parse(%q) error %q does not name the entry", spec, err)
		}
	}
}

func TestParseErrorNamesOffendingEntry(t *testing.T) {
	_, err := Parse("disk:1*10@5s-30s; drop:5:-0.2")
	if err == nil {
		t.Fatal("negative probability accepted")
	}
	if !strings.Contains(err.Error(), "drop:5:-0.2") {
		t.Fatalf("error %q does not name the bad entry", err)
	}
}

func TestCrashedQueries(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1, Start: 5 * time.Second, End: 10 * time.Second},
		{Kind: ServerCrash, Target: 2, Start: 3 * time.Second}, // permanent
	}}, 7)
	if inj.Crashed(1, 4*time.Second) {
		t.Error("server 1 crashed before its window")
	}
	if !inj.Crashed(1, 7*time.Second) {
		t.Error("server 1 alive inside its crash window")
	}
	if inj.Crashed(1, 10*time.Second) {
		t.Error("server 1 still crashed after recovery")
	}
	if !inj.Crashed(2, time.Hour) {
		t.Error("permanent crash recovered")
	}
	if inj.Crashed(0, 7*time.Second) {
		t.Error("healthy server reported crashed")
	}
	// Overlap semantics: service intervals straddling the crash are lost.
	for _, tc := range []struct {
		from, to time.Duration
		want     bool
	}{
		{0, 4 * time.Second, false},                 // entirely before
		{11 * time.Second, 12 * time.Second, false}, // entirely after
		{4 * time.Second, 6 * time.Second, true},    // straddles the start
		{9 * time.Second, 11 * time.Second, true},   // straddles the end
		{0, time.Hour, true},                        // spans the window
	} {
		if got := inj.CrashedDuring(1, tc.from, tc.to); got != tc.want {
			t.Errorf("CrashedDuring(1, %v, %v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if !inj.HasCrashWindows() {
		t.Error("HasCrashWindows false with crash windows present")
	}
	healthy := NewInjector(sim.NewKernel(1), &Schedule{Windows: []Window{
		{Kind: DiskSlow, Target: 1, Factor: 2},
	}}, 7)
	if healthy.HasCrashWindows() {
		t.Error("HasCrashWindows true without crash windows")
	}
}

func TestServerStateNotifications(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1, Start: 5 * time.Second, End: 10 * time.Second},
		{Kind: ServerCrash, Target: 2, Start: 3 * time.Second},
	}}, 7)
	type ev struct {
		server int
		up     bool
		at     time.Duration
	}
	var got []ev
	inj.OnServerState(func(server int, up bool, at time.Duration) {
		got = append(got, ev{server, up, at})
	})
	k.RunUntil(time.Hour)
	want := []ev{
		{2, false, 3 * time.Second},
		{1, false, 5 * time.Second},
		{1, true, 10 * time.Second},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestClientCrashNotifications(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ClientCrash, Target: 3, Start: 5 * time.Second},
		{Kind: ClientCrash, Target: 1, Start: 2 * time.Second},
	}}, 7)
	if !inj.HasClientCrashWindows() {
		t.Error("HasClientCrashWindows false with client-crash windows present")
	}
	if inj.HasCrashWindows() {
		t.Error("client crashes must not count as server crash windows")
	}
	type ev struct {
		rank int
		at   time.Duration
	}
	var got []ev
	inj.OnClientState(func(rank int, at time.Duration) {
		got = append(got, ev{rank, at})
	})
	var serverTransitions int
	inj.OnServerState(func(int, bool, time.Duration) { serverTransitions++ })
	k.RunUntil(time.Hour)
	want := []ev{{1, 2 * time.Second}, {3, 5 * time.Second}}
	if len(got) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if serverTransitions != 0 {
		t.Errorf("client crashes fired %d server transitions", serverTransitions)
	}
	server := NewInjector(sim.NewKernel(1), &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1, Start: time.Second},
	}}, 7)
	if server.HasClientCrashWindows() {
		t.Error("HasClientCrashWindows true with only server crashes")
	}
	var nilInj *Injector
	if nilInj.HasClientCrashWindows() {
		t.Error("nil injector has client-crash windows")
	}
	nilInj.OnClientState(func(int, time.Duration) {}) // must not panic
}

func TestRecoveryNotSignaledWhileStillCrashed(t *testing.T) {
	// Two overlapping crash windows: the first ends while the second still
	// covers the server, so no recovery fires until the second ends.
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1, Start: 2 * time.Second, End: 6 * time.Second},
		{Kind: ServerCrash, Target: 1, Start: 4 * time.Second, End: 9 * time.Second},
	}}, 7)
	var ups []time.Duration
	inj.OnServerState(func(server int, up bool, at time.Duration) {
		if up {
			ups = append(ups, at)
		}
	})
	k.RunUntil(time.Hour)
	if len(ups) != 1 || ups[0] != 9*time.Second {
		t.Fatalf("recovery transitions %v, want exactly [9s]", ups)
	}
}

func TestNodeCrashed(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1, Start: 5 * time.Second},
	}}, 7)
	inj.BindServerNodes([]int{10, 11, 12})
	if inj.NodeCrashed(11, 4*time.Second) {
		t.Error("node crashed before the window")
	}
	if !inj.NodeCrashed(11, 6*time.Second) {
		t.Error("node of crashed server not reported")
	}
	if inj.NodeCrashed(10, 6*time.Second) || inj.NodeCrashed(99, 6*time.Second) {
		t.Error("unrelated node reported crashed")
	}
	unbound := NewInjector(sim.NewKernel(1), &Schedule{Windows: []Window{
		{Kind: ServerCrash, Target: 1},
	}}, 7)
	if unbound.NodeCrashed(11, time.Second) {
		t.Error("unbound injector reported a crashed node")
	}
}

func TestWindowActive(t *testing.T) {
	w := Window{Kind: DiskSlow, Target: 0, Factor: 2, Start: 5 * time.Second, End: 10 * time.Second}
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, {5 * time.Second, true}, {9 * time.Second, true},
		{10 * time.Second, false}, {time.Hour, false},
	} {
		if got := w.active(tc.at); got != tc.want {
			t.Errorf("active(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	open := Window{Kind: DiskSlow, Factor: 2, Start: time.Second}
	if !open.active(time.Hour) {
		t.Error("open-ended window inactive")
	}
}

func TestFactorsMultiplyAndTarget(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: DiskSlow, Target: 1, Factor: 10},
		{Kind: DiskSlow, Target: 1, Factor: 2, Start: 0, End: 5 * time.Second},
		{Kind: ServerSlow, Target: 1, Factor: 3},
	}}, 7)
	if f := inj.DiskFactor(1, time.Second); f != 20 {
		t.Errorf("overlapping DiskFactor = %g, want 20", f)
	}
	if f := inj.DiskFactor(1, 6*time.Second); f != 10 {
		t.Errorf("DiskFactor after inner window = %g, want 10", f)
	}
	if f := inj.DiskFactor(0, time.Second); f != 1 {
		t.Errorf("healthy server DiskFactor = %g, want 1", f)
	}
	if f := inj.ServerFactor(1, time.Second); f != 3 {
		t.Errorf("ServerFactor = %g, want 3", f)
	}
	if f := inj.DiskFactor(1, time.Second); f != 20 {
		t.Errorf("ServerSlow window leaked into DiskFactor: %g", f)
	}
}

func TestLinkFactorEitherEndpoint(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: LinkSlow, Target: 3, Factor: 4},
	}}, 7)
	if f := inj.LinkFactor(3, 100, 0); f != 4 {
		t.Errorf("LinkFactor(from=target) = %g, want 4", f)
	}
	if f := inj.LinkFactor(100, 3, 0); f != 4 {
		t.Errorf("LinkFactor(to=target) = %g, want 4", f)
	}
	if f := inj.LinkFactor(100, 101, 0); f != 1 {
		t.Errorf("LinkFactor(unrelated) = %g, want 1", f)
	}
}

func TestStallUntil(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{Windows: []Window{
		{Kind: ServerStall, Target: 2, Start: time.Second, End: 2 * time.Second},
		{Kind: ServerStall, Target: 2, Start: time.Second, End: 3 * time.Second},
	}}, 7)
	if u := inj.StallUntil(2, 1500*time.Millisecond); u != 3*time.Second {
		t.Errorf("StallUntil = %v, want 3s (latest overlapping end)", u)
	}
	if u := inj.StallUntil(2, 4*time.Second); u != 0 {
		t.Errorf("StallUntil after windows = %v, want 0", u)
	}
	if u := inj.StallUntil(0, 1500*time.Millisecond); u != 0 {
		t.Errorf("StallUntil on healthy server = %v, want 0", u)
	}
}

func TestDropDeterministicPerSeed(t *testing.T) {
	sch := &Schedule{Windows: []Window{
		{Kind: LinkDrop, Target: 5, Prob: 0.5, End: time.Minute},
	}}
	draw := func(seed int64) []bool {
		inj := NewInjector(sim.NewKernel(1), sch, seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Drop(5, 100, time.Duration(i)*time.Second/100)
		}
		return out
	}
	a, b := draw(42), draw(42)
	var dropped int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
		if a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("p=0.5 produced %d/%d drops", dropped, len(a))
	}
	// Outside the window no randomness is drawn and nothing drops.
	inj := NewInjector(sim.NewKernel(1), sch, 42)
	if inj.Drop(5, 100, 2*time.Minute) {
		t.Error("drop outside the window")
	}
	// Unrelated endpoints never drop.
	if inj.Drop(7, 100, time.Second) {
		t.Error("drop on an unrelated link")
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var inj *Injector
	if f := inj.DiskFactor(0, 0); f != 1 {
		t.Errorf("nil DiskFactor = %g", f)
	}
	if f := inj.ServerFactor(0, 0); f != 1 {
		t.Errorf("nil ServerFactor = %g", f)
	}
	if f := inj.LinkFactor(0, 1, 0); f != 1 {
		t.Errorf("nil LinkFactor = %g", f)
	}
	if u := inj.StallUntil(0, 0); u != 0 {
		t.Errorf("nil StallUntil = %v", u)
	}
	if inj.Drop(0, 1, 0) {
		t.Error("nil injector dropped a message")
	}
	if inj.Enabled() {
		t.Error("nil injector reports enabled")
	}
	if inj.Crashed(0, 0) || inj.CrashedDuring(0, 0, time.Hour) || inj.NodeCrashed(0, 0) {
		t.Error("nil injector reported a crash")
	}
	if inj.HasCrashWindows() {
		t.Error("nil injector has crash windows")
	}
	inj.OnServerState(func(int, bool, time.Duration) {}) // must not panic
	inj.BindServerNodes([]int{1, 2})                     // must not panic
}

func TestEmptyScheduleAddsNoEvents(t *testing.T) {
	k := sim.NewKernel(1)
	inj := NewInjector(k, &Schedule{}, 42)
	if k.Pending() != 0 {
		t.Fatalf("empty schedule left %d kernel events pending", k.Pending())
	}
	if inj.Enabled() {
		t.Error("empty-schedule injector reports enabled")
	}
	if inj.rng != nil {
		t.Error("empty-schedule injector created a random source")
	}
}

func TestInvalidSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector accepted an invalid schedule")
		}
	}()
	NewInjector(sim.NewKernel(1), &Schedule{Windows: []Window{
		{Kind: DiskSlow, Target: 0, Factor: 0.5},
	}}, 1)
}
