package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// counts are a run's model counts: virtual-time statistics of every layer.
// The simulator is deterministic, so for one seed they repeat exactly and
// serve as the run's output fingerprint; any difference is a wrong answer,
// not noise.
type counts map[string]float64

// countUnits lists every model count with its unit, in report order.
var countUnits = []struct{ name, unit string }{
	{"disk.accesses", "count"},
	{"disk.seeks", "count"},
	{"disk.seek_share", "ratio"},
	{"disk.busy_s", "sim_s"},
	{"iosched.served", "count"},
	{"fs.pages", "count"},
	{"fs.hit_ratio", "ratio"},
	{"fs.MB", "MB"},
	{"netsim.messages", "count"},
	{"netsim.MB", "MB"},
	{"netsim.drops", "count"},
	{"pfs.retries", "count"},
	{"pfs.failovers", "count"},
	{"memcache.gets", "count"},
	{"memcache.hit_ratio", "ratio"},
	{"memcache.evictions", "count"},
	{"core.emc_decisions", "count"},
	{"core.mode_switches", "count"},
	{"core.cycles", "count"},
	{"tenant.grants", "count"},
	{"tenant.denies", "count"},
	{"tenant.revokes", "count"},
	{"mpiio.io_ratio", "ratio"},
	{"sim.elapsed_s", "sim_s"},
	{"sim.MBps", "MB/s"},
}

// fingerprint reads the model counts off a finished run through the layers'
// exported statistics.
func fingerprint(s *simRun) counts {
	const mb = 1 << 20
	c := counts{}
	d := s.cl.ServerStats()
	c["disk.accesses"] = float64(d.Accesses)
	c["disk.seeks"] = float64(d.Seeks)
	c["disk.seek_share"] = ratio(float64(d.Seeks), float64(d.Accesses))
	c["disk.busy_s"] = d.BusyTime.Seconds()

	var served, hits, misses, fsBytes int64
	for _, st := range s.cl.Stores {
		served += st.Dispatcher().Served()
		hits += st.CacheHitPages()
		misses += st.CacheMissPages()
		fsBytes += st.BytesRead() + st.BytesWritten()
	}
	c["iosched.served"] = float64(served)
	c["fs.pages"] = float64(hits + misses)
	c["fs.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	c["fs.MB"] = float64(fsBytes) / mb

	c["netsim.messages"] = float64(s.cl.Net.Messages())
	c["netsim.MB"] = float64(s.cl.Net.BytesSent()) / mb
	c["netsim.drops"] = float64(s.cl.Net.Drops())
	c["pfs.retries"] = float64(s.cl.FS.Retries())
	c["pfs.failovers"] = float64(s.cl.FS.Failovers())

	var gets, cacheHits, evictions, switches, cycles, progBytes int64
	var ioRatio float64
	var elapsed float64
	progs := s.r.Programs()
	for _, pr := range progs {
		if mc := pr.Cache(); mc != nil {
			gets += mc.Gets()
			cacheHits += mc.Hits()
			evictions += mc.Evictions()
		}
		switches += int64(len(pr.ModeSwitches))
		cycles += pr.Cycles()
		ioRatio += pr.Instr().IORatio()
		progBytes += pr.Instr().TotalBytes()
		elapsed = max(elapsed, pr.EndedAt.Seconds())
	}
	c["memcache.gets"] = float64(gets)
	c["memcache.hit_ratio"] = ratio(float64(cacheHits), float64(gets))
	c["memcache.evictions"] = float64(evictions)
	c["core.emc_decisions"] = float64(len(s.r.EMCDecisions()))
	c["core.mode_switches"] = float64(switches)
	c["core.cycles"] = float64(cycles)

	var grants, denies, revokes int64
	if arb := s.cl.Arbiter(); arb != nil {
		for t := 0; t < arb.Tenants(); t++ {
			grants += arb.Grants(t)
			denies += arb.Denies(t)
			revokes += arb.Revokes(t)
		}
	}
	c["tenant.grants"] = float64(grants)
	c["tenant.denies"] = float64(denies)
	c["tenant.revokes"] = float64(revokes)

	c["mpiio.io_ratio"] = ratio(ioRatio, float64(len(progs)))
	c["sim.elapsed_s"] = elapsed
	c["sim.MBps"] = ratio(float64(progBytes)/mb, elapsed)
	return c
}

// diff names the counts that differ between want and got ("" when equal).
func (want counts) diff(got counts) string {
	var bad []string
	for _, cu := range countUnits {
		if w, g := want[cu.name], got[cu.name]; w != g {
			bad = append(bad, fmt.Sprintf("%s %v != %v", cu.name, g, w))
		}
	}
	return strings.Join(bad, ", ")
}

// goldenPath holds the checked-in fingerprints, relative to the benchmark's
// directory (where the benchmark runs).
const goldenPath = "testdata/fingerprints.json"

// goldenSeeds are the seeds with checked-in fingerprints. Seed 2 is held out:
// work on a change uses seed 1, and a claimed gain must also hold on 2.
var goldenSeeds = []int64{1, 2}

//go:embed testdata/fingerprints.json
var goldenJSON []byte

// goldens maps seed, then workload, to the expected counts.
type goldens map[string]map[string]counts

// loadGoldens decodes the embedded fingerprints.
func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decode %s: %w", goldenPath, err)
	}
	return g, nil
}

// lookup returns the golden counts for a workload and seed, or nil.
func (g goldens) lookup(workload string, seed int64) counts {
	return g[strconv.FormatInt(seed, 10)][workload]
}

// updateGoldens runs every workload once at each golden seed and rewrites
// the fingerprint file.
func updateGoldens() error {
	g := goldens{}
	for _, seed := range goldenSeeds {
		bySeed := map[string]counts{}
		for _, w := range allWorkloads {
			s := w.build(buildOpts{seed: seed})
			err := s.run()
			c := fingerprint(s)
			if err == nil {
				err = s.verifyIntegrity()
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			bySeed[w.name] = c
			fmt.Printf("%s seed %d: %v simulated seconds\n", w.name, seed, c["sim.elapsed_s"])
		}
		g[strconv.FormatInt(seed, 10)] = bySeed
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(out, '\n'), 0o644)
}
