package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"
)

// streamPrograms are the configurations whose op streams are pinned by
// hash: every registry workload at two sizes, plus the variants the
// registry cannot reach (compute between calls, barrier intervals, the
// BTIO read-back, zero compute, and the restart reader).
func streamPrograms() map[string]Program {
	progs := map[string]Program{}
	for _, w := range Workloads() {
		progs[w.Name+"/small"] = w.Build(Params{Procs: 4, Bytes: 4 << 20})
		progs[w.Name+"/large-write"] = w.Build(Params{Procs: 6, Bytes: 16 << 20, Write: true})
	}
	n := DefaultNoncontig()
	n.Procs, n.FileBytes, n.ComputePerOp = 8, 8<<20, 3*time.Millisecond
	progs["noncontig/compute"] = n
	m := DefaultMPIIOTest()
	m.Procs, m.FileBytes, m.ComputePerOp = 4, 2<<20, time.Millisecond
	progs["mpi-io-test/compute"] = m
	m.ComputePerOp, m.BarrierEvery = 0, 3
	progs["mpi-io-test/barrier3"] = m
	m.BarrierEvery = 0
	progs["mpi-io-test/barrier0"] = m
	d := DefaultDemo()
	d.ComputePerCall = 2 * time.Millisecond
	progs["demo/compute"] = d
	i := DefaultIOR()
	i.Procs, i.FileBytes, i.ComputePerOp = 4, 2<<20, time.Millisecond
	progs["ior-mpi-io/compute"] = i
	h := DefaultHPIO()
	h.Procs, h.RegionCount, h.ComputePerOp = 4, 64, time.Millisecond
	progs["hpio/compute"] = h
	c := DefaultCheckpoint()
	c.Procs, c.Checkpoints, c.Compute = 4, 3, 0
	progs["checkpoint/no-compute"] = c
	b := DefaultBTIO()
	b.Procs, b.TotalBytes, b.Read = 4, 1<<20, true
	progs["btio/read"] = b
	b.Read, b.StepCompute = false, 0
	progs["btio/no-compute"] = b
	for _, shared := range []bool{true, false} {
		e := DefaultEpochCheckpoint(shared)
		e.Procs, e.Epochs = 3, 4
		progs[e.Name()+"/default"] = e
		e.Interval = 0
		progs[e.Name()+"/no-interval"] = e
		progs[e.Name()+"/restart"] = Restart{Ckpt: e, Epoch: 3}
	}
	return progs
}

// streamHashes are the SHA-256 digests of each configuration's op stream
// (see hashStream).
var streamHashes = map[string]string{
	"btio/large-write":        "6d698e0b58a04cc4acc7366053adc512bc04b98e8f9d71c77c21e55c945d0996",
	"btio/no-compute":         "491e0d699baa9439c4771119928f1a12b5cfacee6d32f48fdbee71fc7438f1bb",
	"btio/read":               "4da892d35b5f30f4fa7449529ae7ad2c80753d0ceecb4cc078a4ff9092ca0c65",
	"btio/small":              "b149862285ab599c44e0148c4191b355464d9742b3d93ff0302cc5f3bb1c125d",
	"checkpoint/large-write":  "eae0da18935914fe8b53d5669e0baf59418c97539d99144b1065dccad35e3c8f",
	"checkpoint/no-compute":   "c6a1b1b2674c110515488e48a6f9ba5f73993f7661ffada7540130c10ca1fc5b",
	"checkpoint/small":        "629ce8a03d79a8fe20c21cb1f1408ec5f48c2bfc44a1e48cad7717b072e48b9f",
	"ckpt-n1/default":         "7f0feafd45b427786f0c26fac7d22028e762a53176611fdefe93b9f4d3d66930",
	"ckpt-n1/large-write":     "228a004478dea604fcbbecf37f09c36af0f664c185598d9e0f1f1a3d00579df6",
	"ckpt-n1/no-interval":     "baed4bf9afe7b1f90bdf9f24ecd70483ea43731f90eddc08c6e2b9dfcde4f017",
	"ckpt-n1/restart":         "1682240a18aa6ee9405fa22a61822485f0b664a925f856d068c9e72fa91a19cf",
	"ckpt-n1/small":           "5cfeef784d83251f632f0d5976f0f37bd0f79717850849f82359ab43b428e845",
	"ckpt-nn/default":         "0127b2eb6929161de52e9ea7988fe7988e5634bbf45de43c2482ff0c5d25fb8a",
	"ckpt-nn/large-write":     "e14806f643cdba6a9363e8985fee43dd9c281d39cdb86a10a5bb46bddfc91e34",
	"ckpt-nn/no-interval":     "5cc2f7fe7d9554abbf4407da777d3c63034d0427fb72d02b123a0effcdeb3b0a",
	"ckpt-nn/restart":         "cad8635fa54ea03c6f1e4ba089666d58485a9ec1efb7e4a6c00507a19e4843f9",
	"ckpt-nn/small":           "0badd6bd8e7ea0abe27b4534361d875c3feea239c3f82d70a7807a4b3d7a64f3",
	"demo/compute":            "7ed25400318fc67fb706db5fa6d667d9c7b0c400c62e1d7ca6ddd0d2ec8397bc",
	"demo/large-write":        "0aec475dc7e2627ad62eedc527c421d0e70779539b25816c14934a880afa64ea",
	"demo/small":              "5479fbe4dd48766276a47b9919ab3a6030d59130e9725085c484a387ab39b25b",
	"depreader/large-write":   "6a87f84e052fbac60e44be7819f5735119272c89ddf64fc56a8697ade9203953",
	"depreader/small":         "4c74e644983949cfdd0ad1708fb2b1c2967afb4b041edc4d5dfdc560c3d91b03",
	"hpio/compute":            "e0ea6c8942a5ddae60bb2249687a121c7ba7ffae29eaa4be84587df6a21fbcc2",
	"hpio/large-write":        "4ffee53dfdf1a0e81e9cbbfafcfaf7414d389a4523536fcf2fb12bd44068bf38",
	"hpio/small":              "8d2bac835567278ec60a32bc1fe55350da7e107a0fcf94130b759083be1457ac",
	"ior-mpi-io/compute":      "dc0397e813d7e689f8bd005e3619400ec490e19f9cc2a73a6f2329431b934cd1",
	"ior-mpi-io/large-write":  "d5edaa564f5e41393f6e7e5d8bd777c5988701eb156a44c7bbb296db90fbe0cb",
	"ior-mpi-io/small":        "e1dceacddd3622714be9027c20c87c5c05f22154949cb17311c40c4ccb2dc1e0",
	"mpi-io-test/barrier0":    "bca6aff5ea3b27695ca90698fcbde98448da922891f9857b45e51307e4add2a0",
	"mpi-io-test/barrier3":    "997f423b0114b9440d3d56e17bccbff2abb39ea4876fab3defc37abd9eda5254",
	"mpi-io-test/compute":     "e8d0da09c9d67b31f94cb924de2d37cc035ba86407c80b6d8039270c416658fd",
	"mpi-io-test/large-write": "638ae507d78f605042b712d2971cd91ea87ef4011fe00e70391d27e36207ffd3",
	"mpi-io-test/small":       "752aa4fbf873fc80241b5398ac1897ae8da2565b4cd7edae2e785b92edcd2be8",
	"noncontig/compute":       "05ca1cec278b054ae2b917430707353c9a1d62d4f755ae90a3b76e5cd04ff82e",
	"noncontig/large-write":   "fe46b4ebc67615bd4e74fee43b63990ec4fcaa026f72afde6167209e6b687200",
	"noncontig/small":         "3a92ff755d99fe81e362ee9c338c71a8fb65f086feb48f328de8dd734713d192",
	"s3asim/large-write":      "7aa2a55ecdb0ac0945f7e7bcb5f24f61d3b4ed411086ec10ba66c39464ac8b11",
	"s3asim/small":            "b2ec929794cfed07128df24666eabe2bf347b65f838e54379010008c548ac39b",
}

// hashOp feeds one op's kind, duration, file, extents and epoch to h.
func hashOp(h hash.Hash, op Op) {
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	word(int64(op.Kind))
	word(int64(op.Dur))
	word(int64(len(op.File)))
	h.Write([]byte(op.File))
	word(int64(len(op.Extents)))
	for _, x := range op.Extents {
		word(x.Off)
		word(x.Len)
	}
	word(int64(op.Epoch))
}

// hashStream digests every rank's whole op stream, and every fifth op
// the next op of a clone taken there, so a change to any op, or to what
// a clone carries, changes the digest.
func hashStream(t *testing.T, prog Program) string {
	t.Helper()
	h := sha256.New()
	for r := 0; r < prog.Ranks(); r++ {
		g := prog.NewRank(r)
		for n := 0; ; n++ {
			if n > 1_000_000 {
				t.Fatalf("%s rank %d: no end after %d ops", prog.Name(), r, n)
			}
			if n%5 == 0 {
				hashOp(h, g.Clone(nil).Next(TrueEnv{}))
			}
			op := g.Next(TrueEnv{})
			hashOp(h, op)
			if op.Kind == OpDone {
				break
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOpStreamsPinned: every generator emits exactly the op stream it
// emitted when the digests were recorded.
func TestOpStreamsPinned(t *testing.T) {
	progs := streamPrograms()
	if len(progs) != len(streamHashes) {
		t.Errorf("%d configurations, %d pinned digests", len(progs), len(streamHashes))
	}
	for name, prog := range progs {
		if got, want := hashStream(t, prog), streamHashes[name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}
