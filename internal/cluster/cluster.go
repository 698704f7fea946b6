// Package cluster assembles the simulated testbed the paper evaluates on:
// a metadata server, a set of PVFS2 data servers (each with a two-disk
// RAID behind a kernel I/O scheduler), compute nodes, and a switched
// Gigabit Ethernet connecting them.
//
// Node numbering: node 0 is the metadata server, nodes 1..DataServers are
// data servers, and compute nodes start at ComputeNodeBase.
package cluster

import (
	"fmt"

	"dualpar/internal/burst"
	"dualpar/internal/check"
	"dualpar/internal/disk"
	"dualpar/internal/fault"
	"dualpar/internal/fs"
	"dualpar/internal/iosched"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
	"dualpar/internal/tenant"
)

// ComputeNodeBase is the first compute-node id.
const ComputeNodeBase = 100

// DisksPerRAID is the drive count of every data server's RAID0 (the
// paper's two-drive RAID); the audit reproducer prints it.
const DisksPerRAID = 2

// raidChunkSect is the RAID0 chunk in sectors (64 KB).
const raidChunkSect = 128

// Config describes a cluster.
type Config struct {
	DataServers  int
	ComputeNodes int
	DiskSectors  int64 // capacity of every rotating drive, in sectors
	FS           fs.Config
	PFS          pfs.Config
	Seed         int64
	TraceServers bool                     // enable blktrace-style logs on all data servers
	NewScheduler func() iosched.Algorithm // per-server elevator; nil = CFQ
	// SSD replaces the rotating RAID with a flash device on every data
	// server (forward-looking ablation: the paper's premise is seek-bound
	// storage).
	SSD bool
	// Obs, when non-nil, enables simulation-wide tracing and metrics: it is
	// threaded through the network, the data servers' storage stacks, and
	// the block-layer dispatchers. Nil (the default) costs one nil check per
	// instrumentation point and leaves the virtual timeline untouched.
	Obs *obs.Collector
	// Faults, when non-nil, threads a deterministic fault-injection
	// schedule through the testbed: per-server disk degradation, link
	// degradation and transient drops, and server stall/slowdown windows.
	// An empty schedule leaves the run byte-identical to Faults == nil.
	Faults *fault.Schedule
	// Burst, when non-nil, adds per-compute-node burst-buffer write logs:
	// checkpoint writes tagged with an epoch absorb into the node's log and
	// drain to the PFS in the background. Nil takes none of the burst code
	// paths, leaving the run byte-identical to a build without the tier.
	Burst *burst.Config
	// Tenancy, when non-nil, shares the cluster among competing tenants: a
	// cluster-wide arbiter rations data-driven grants and (optionally)
	// partitions cache capacity per tenant. Nil takes none of the tenancy
	// code paths, leaving the run byte-identical to a build without it.
	Tenancy *tenant.Config
}

// DefaultConfig matches the paper's platform: 9 data servers + 1 metadata
// server, CFQ, PVFS2 with 64 KB striping, Gigabit Ethernet, two-drive RAID.
func DefaultConfig() Config {
	return Config{
		DataServers:  9,
		ComputeNodes: 8,
		DiskSectors:  disk.DefaultSectors,
		FS:           fs.DefaultConfig(),
		Seed:         1,
	}
}

// Cluster is an assembled testbed.
type Cluster struct {
	K      *sim.Kernel
	Net    *netsim.Network
	FS     *pfs.FileSystem
	Stores []*fs.Store
	cfg    Config
	inj    *fault.Injector
	tier   *burst.Tier
	arb    *tenant.Arbiter
	audit  *check.Auditor // set by EnableAudit
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.DataServers <= 0 || cfg.ComputeNodes <= 0 {
		panic(fmt.Sprintf("cluster: bad shape %d/%d", cfg.DataServers, cfg.ComputeNodes))
	}
	k := sim.NewKernel(cfg.Seed)
	net := netsim.New()
	var inj *fault.Injector
	if cfg.Faults != nil {
		inj = fault.NewInjector(k, cfg.Faults, cfg.Seed*31337+7)
		net.SetFaults(inj)
	}
	newSched := cfg.NewScheduler
	if newSched == nil {
		newSched = func() iosched.Algorithm { return iosched.NewCFQ() }
	}
	var nodes []int
	var stores []*fs.Store
	for i := 0; i < cfg.DataServers; i++ {
		var dev disk.Device
		if cfg.SSD {
			dev = disk.NewSSD()
		} else {
			members := make([]*disk.Disk, DisksPerRAID)
			for m := range members {
				members[m] = disk.New(cfg.DiskSectors)
			}
			dev = disk.NewRAID0(members, raidChunkSect)
		}
		if inj != nil {
			dev = fault.WrapDevice(dev, inj, i)
		}
		st := fs.New(k, fmt.Sprintf("server%d", i), dev, newSched(), cfg.FS, flusherOriginBase+i)
		if cfg.TraceServers {
			st.Dispatcher().EnableTrace()
		}
		stores = append(stores, st)
		nodes = append(nodes, 1+i)
	}
	fsys := pfs.New(k, net, cfg.PFS, 0, nodes, stores)
	if inj != nil {
		// Let the transport void messages to crash-stopped data servers and
		// arm the PFS failure detector / online rebuild.
		inj.BindServerNodes(nodes)
		fsys.SetFaults(inj)
	}
	var tier *burst.Tier
	if cfg.Burst != nil {
		tier = burst.NewTier(k, *cfg.Burst, func(node int) burst.Writer {
			return fsys.Client(node)
		})
	}
	var arb *tenant.Arbiter
	if cfg.Tenancy != nil {
		arb = tenant.NewArbiter(*cfg.Tenancy, k.Now)
	}
	c := &Cluster{K: k, Net: net, FS: fsys, Stores: stores, cfg: cfg, inj: inj, tier: tier, arb: arb}
	c.EnableObs(cfg.Obs)
	return c
}

// flusherOriginBase keeps server-flusher origins away from program origins.
const flusherOriginBase = 1 << 20

// Auditor returns the auditor EnableAudit attached (nil when none was).
func (c *Cluster) Auditor() *check.Auditor { return c.audit }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// EnableAudit attaches the run auditor to every layer the cluster owns: the
// kernel's monotone-clock check, each dispatcher's pending/byte ledgers, the
// file system's served/rebuild byte accounting, and end-of-run conservation
// probes tying the ledgers together. Final (not per-cycle) probes are used
// for byte conservation because the linked counters update at different
// points around yields and only agree once the run is quiescent. The
// ledgers arm once per cluster: a later run on it keeps this auditor (see
// Auditor) instead of arming a second one.
func (c *Cluster) EnableAudit(a *check.Auditor) {
	c.audit = a
	c.K.SetAudit(a)
	c.FS.SetAudit(a)
	for i, st := range c.Stores {
		i, st := i, st
		st.Dispatcher().SetAudit(a)
		a.RegisterFinalProbe(fmt.Sprintf("conserve.disk.server%d", i), func() error {
			stats := st.Device().Stats()
			disk := stats.BytesRead + stats.BytesWritten
			if got := st.Dispatcher().AuditDispatchedBytes(); got != disk {
				return fmt.Errorf("scheduler dispatched %d bytes, disk moved %d", got, disk)
			}
			return nil
		})
		a.RegisterFinalProbe(fmt.Sprintf("conserve.store.server%d", i), func() error {
			store := st.BytesRead() + st.BytesWritten()
			served := c.FS.AuditServedBytes(i)
			rebuild := c.FS.AuditRebuildBytes(i)
			if store != served+rebuild {
				return fmt.Errorf("store moved %d logical bytes, pfs accounted %d (served %d + rebuild %d)",
					store, served+rebuild, served, rebuild)
			}
			return nil
		})
		// The storage engine's layout oracle: extent maps must be contiguous
		// in file space, cover the allocated size and never overlap on disk,
		// and log byte ledgers must conserve across compaction (LSM).
		a.RegisterFinalProbe(fmt.Sprintf("engine.server%d", i), func() error {
			return st.Engine().CheckInvariants()
		})
	}
	if c.tier != nil {
		c.tier.RegisterAudit(a)
	}
	if c.arb != nil {
		c.arb.RegisterAudit(a)
		// Final probes only run at quiescence (every program finished), the
		// one point where all grants must have been returned.
		a.RegisterFinalProbe("tenant.grants.leak", c.arb.CheckDrained)
	}
}

// Obs returns the cluster-wide collector (nil when tracing is off).
func (c *Cluster) Obs() *obs.Collector { return c.cfg.Obs }

// EnableObs wires a collector into every layer the cluster owns: the
// network, the PFS layer, every store, the fault injector, the burst tier
// and the tenancy arbiter. New calls it with Config.Obs, so a collector
// enabled later is wired exactly as one set at construction. Call before
// any simulation runs; a nil collector is a no-op.
func (c *Cluster) EnableObs(col *obs.Collector) {
	if col == nil {
		return
	}
	c.cfg.Obs = col
	c.Net.SetObs(col)
	c.FS.SetObs(col)
	for _, st := range c.Stores {
		st.SetObs(col)
	}
	if c.inj != nil {
		c.inj.SetObs(col)
	}
	if c.tier != nil {
		c.tier.SetObs(col)
	}
	if c.arb != nil {
		c.arb.SetObs(col)
	}
}

// Faults returns the cluster's fault injector (nil when no schedule was
// configured; a nil injector is safe to query).
func (c *Cluster) Faults() *fault.Injector { return c.inj }

// Burst returns the cluster's burst-buffer tier (nil when not configured).
func (c *Cluster) Burst() *burst.Tier { return c.tier }

// Arbiter returns the cluster-wide tenancy arbiter (nil when the cluster is
// untenanted).
func (c *Cluster) Arbiter() *tenant.Arbiter { return c.arb }

// ComputeNodes returns the compute-node ids.
func (c *Cluster) ComputeNodes() []int {
	out := make([]int, c.cfg.ComputeNodes)
	for i := range out {
		out[i] = ComputeNodeBase + i
	}
	return out
}

// MetaNode returns the metadata server's node id.
func (c *Cluster) MetaNode() int { return 0 }

// ServerStats aggregates device stats across data servers.
func (c *Cluster) ServerStats() disk.Stats {
	var agg disk.Stats
	for _, st := range c.Stores {
		s := st.Device().Stats()
		agg.Accesses += s.Accesses
		agg.Seeks += s.Seeks
		agg.SeekSectors += s.SeekSectors
		agg.BytesRead += s.BytesRead
		agg.BytesWritten += s.BytesWritten
		agg.BusyTime += s.BusyTime
		agg.SequentialRun += s.SequentialRun
		agg.SeekTime += s.SeekTime
		agg.TransferTime += s.TransferTime
	}
	return agg
}
