package tenant

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseSpec asserts ParseSpec's contract on arbitrary input: it never
// panics, any config it accepts validates cleanly (so Schedule and
// NewArbiter cannot panic on a parsed config) with finite numeric fields,
// and the rendered form re-parses to the same config.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"  ",
		"tenants:4",
		"tenants:4,arrival=poisson:25,policy=fair,grants=64,cache=64M,jobs=150,ranks=2,hot=0x3,seed=7",
		"arrival=burst:100@500ms",
		"arrival=closed:8x5:10ms",
		"arrival=closed:8x5",
		"policy=prio,grants=6",
		"policy=fcfs",
		"cache=64K",
		"cache=1G",
		"cache=123",
		"tenants:0",
		"tenants:-1",
		"arrival=poisson:0",
		"arrival=poisson:NaN",
		"arrival=poisson:1e309",
		"arrival=burst:1@-5s",
		"arrival=closed:0x0",
		"hot=0x0",
		"hot=99x2",
		"grants=-1",
		"cache=-1",
		"cache=99999999999999999G",
		"seed=abc",
		"jobs=1,jobs=2,jobs=3",
		",,,",
		"tenants:4,",
		"=",
		"a=b=c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			if cfg != (Config{}) {
				t.Fatalf("ParseSpec(%q) returned both a config and error %v", spec, err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config that fails Validate: %v", spec, err)
		}
		if math.IsNaN(cfg.Arrival.Rate) || math.IsInf(cfg.Arrival.Rate, 0) {
			t.Fatalf("ParseSpec(%q) let a non-finite rate through: %+v", spec, cfg.Arrival)
		}
		if strings.TrimSpace(spec) == "" && cfg != DefaultConfig() {
			t.Fatalf("blank spec %q parsed to %+v", spec, cfg)
		}
		back, err := ParseSpec(cfg.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not re-parse: %v", spec, cfg.String(), err)
		}
		if back != cfg {
			t.Fatalf("render/re-parse drift: %+v -> %q -> %+v", cfg, cfg.String(), back)
		}
	})
}
