package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"metronome"
	"metronome/internal/packet"
)

const (
	nQueues  = 2    // RSS queues of every live workload
	ringCap  = 1024 // slots per queue
	frameLen = 64   // bytes per generated frame
	burst    = 32   // generator batch and runner PollBurst size
)

// fibRule is one route of the l3fwd table. The benchmark installs the same
// rules into the forwarder's LPM and keeps them for its own reference
// verdicts.
type fibRule struct {
	prefix packet.Addr
	length int
	hop    uint16
}

var fib = []fibRule{
	{packet.AddrFrom4(10, 0, 0, 0), 8, 0},
	{packet.AddrFrom4(172, 16, 0, 0), 12, 1},
	{packet.AddrFrom4(10, 99, 0, 0), 16, 2},
}

// routable is the reference verdict: whether any rule covers dst. All
// hops name an existing port, so a covered address is forwarded.
func routable(dst packet.Addr) bool {
	for _, r := range fib {
		mask := packet.Addr(^uint32(0) << (32 - r.length))
		if dst&mask == r.prefix {
			return true
		}
	}
	return false
}

// flowSet is the generated traffic: one pre-built 64 B UDP frame per flow
// and the RSS queue the frame hashes to.
type flowSet struct {
	keys   []packet.FlowKey
	queue  []uint8
	frames []byte // flow i's frame is frames[i*frameLen : (i+1)*frameLen]
}

func (fs *flowSet) frame(f int32) []byte {
	return fs.frames[int(f)*frameLen : int(f+1)*frameLen]
}

// newFlowSet builds n flows with distinct source addresses. For l3fwd
// about 85% of destinations fall inside the routing table; the rest go to
// TEST-NET-1, which no rule covers.
func newFlowSet(rng *rand.Rand, n int, l3 bool) (*flowSet, error) {
	fs := &flowSet{
		keys:   make([]packet.FlowKey, n),
		queue:  make([]uint8, n),
		frames: make([]byte, n*frameLen),
	}
	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	buf := make([]byte, frameLen)
	for i := range fs.keys {
		k := packet.FlowKey{
			Src:     packet.AddrFrom4(100, 64, 0, 0) + packet.Addr(i),
			Dst:     packet.Addr(rng.Uint32()),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: uint16(1024 + rng.Intn(60000)),
			Proto:   packet.ProtoUDP,
		}
		if l3 {
			switch x := rng.Float64(); {
			case x < 0.40:
				k.Dst = packet.AddrFrom4(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			case x < 0.65:
				k.Dst = packet.AddrFrom4(172, byte(16+rng.Intn(16)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			case x < 0.85:
				k.Dst = packet.AddrFrom4(10, 99, byte(rng.Intn(256)), byte(rng.Intn(256)))
			default:
				k.Dst = packet.AddrFrom4(192, 0, 2, byte(rng.Intn(256)))
			}
		}
		frame, err := packet.BuildUDP(buf, frameLen, k.Src, k.Dst, k.SrcPort, k.DstPort)
		if err != nil {
			return nil, fmt.Errorf("build frame: %w", err)
		}
		copy(fs.frames[i*frameLen:], frame)
		fs.keys[i] = k
		fs.queue[i] = uint8(rss.QueueFor(k, nQueues))
	}
	return fs, nil
}

// flowOrder returns the order in which the generator sends the flows:
// every flow once per pass, in a seeded random order, so each pass touches
// the whole flow table.
func flowOrder(rng *rand.Rand, n int) []int32 {
	order := make([]int32, n)
	for i, f := range rng.Perm(n) {
		order[i] = int32(f)
	}
	return order
}

// poisson draws exponential inter-arrival gaps for a Poisson process.
type poisson struct {
	rng    *rand.Rand
	meanNs float64
}

func newPoisson(seed int64, pps float64) *poisson {
	return &poisson{rng: rand.New(rand.NewSource(seed)), meanNs: 1e9 / pps}
}

// next returns the gap to the following arrival in nanoseconds.
func (p *poisson) next() int64 { return int64(math.Round(p.rng.ExpFloat64() * p.meanNs)) }

// genLayer is what a traced generator measures around its calls into the
// mbuf and ring layers. The generator goroutine owns it; it is read after
// the generator has stopped.
type genLayer struct {
	getNs, getPkts, getShort int64
	enqNs, enqPkts, refused  int64
	// busyNs is the generator's wall time outside time.Sleep: its CPU
	// time, unless the kernel descheduled it.
	busyNs int64
	lag    *linHist // µs from due time to enqueue
}

// generator plays the NIC in an open loop: arrivals follow a Poisson
// schedule and take the flows in a seeded order. It leases mbufs from a
// producer-side pool cache, copies pre-built frames into them, stamps each
// with the time it was due and enqueues them in bursts on the RSS-selected
// ring. A packet that finds its ring full or the pool empty is dropped and
// charged to the telemetry bus, as a NIC's imissed counter would be.
// Between wakes the generator sleeps: a goroutine that spun through
// runtime.Gosched would keep the Go scheduler checking timers, shorten the
// runner's sleeps and so measure itself rather than the runner.
type generator struct {
	fs    *flowSet
	rings []metronome.RxRing
	pool  *metronome.Pool
	bus   *metronome.TelemetryBus
	arr   *poisson
	order []int32 // flows in sending order, repeated
	tr    *tracer // nil when untraced

	offered, enqueued, dropped atomic.Int64

	// perFlow counts each flow's enqueued packets: the ground truth the
	// application's results are checked against. Generator-owned until
	// done is closed.
	perFlow []uint32
	layer   genLayer

	stop chan struct{}
	done chan struct{}
}

func (g *generator) run() {
	defer close(g.done)
	cache := g.pool.NewCache()
	defer cache.Flush()
	g.send(cache)
}

func (g *generator) stopped() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

func (g *generator) tracing() bool { return g.tr != nil && g.tr.on.Load() }

// getBurst leases into dst, timing the mbuf layer when traced.
func (g *generator) getBurst(cache *metronome.PoolCache, dst []*metronome.Mbuf, batch uint64) int {
	if !g.tracing() {
		return cache.GetBurst(dst)
	}
	t0 := metronome.Nanotime()
	n := cache.GetBurst(dst)
	t1 := metronome.Nanotime()
	g.layer.getNs += t1 - t0
	g.layer.getPkts += int64(n)
	if n < len(dst) {
		g.layer.getShort++
	}
	g.tr.span(spanGet, -1, batch, t0, t1, n)
	return n
}

// enqueue offers ms (carrying flows fl) to ring q and returns how many it
// took, crediting the ground truth for those.
func (g *generator) enqueue(q int, ms []*metronome.Mbuf, fl []int32, batch uint64) int {
	var n int
	if g.tracing() {
		t0 := metronome.Nanotime()
		n = g.rings[q].EnqueueBurst(ms)
		t1 := metronome.Nanotime()
		g.layer.enqNs += t1 - t0
		g.layer.enqPkts += int64(len(ms))
		g.layer.refused += int64(len(ms) - n)
		if n > 0 {
			g.tr.span(spanEnqueue, q, batch, t0, t1, n)
		}
	} else {
		n = g.rings[q].EnqueueBurst(ms)
	}
	for _, f := range fl[:n] {
		g.perFlow[f]++
	}
	g.enqueued.Add(int64(n))
	return n
}

func (g *generator) send(cache *metronome.PoolCache) {
	pend := make([][]*metronome.Mbuf, nQueues)
	pendFlow := make([][]int32, nQueues)
	for q := range pend {
		pend[q] = make([]*metronome.Mbuf, 0, burst)
		pendFlow[q] = make([]int32, 0, burst)
	}
	stash := make([]*metronome.Mbuf, burst)
	stashLo, stashHi := 0, 0
	var batch uint64
	flush := func(q int) {
		p := pend[q]
		if len(p) == 0 {
			return
		}
		n := g.enqueue(q, p, pendFlow[q], batch)
		if rej := len(p) - n; rej > 0 {
			cache.PutBurst(p[n:])
			g.bus.AddDrops(q, uint64(rej))
			g.dropped.Add(int64(rej))
		}
		g.offered.Add(int64(len(p)))
		pend[q] = p[:0]
		pendFlow[q] = pendFlow[q][:0]
	}
	pos := 0
	next := metronome.Nanotime()
	for !g.stopped() {
		now := metronome.Nanotime()
		batch++
		var t0 int64
		if g.tracing() {
			t0 = now
		}
		for next <= now {
			f := g.order[pos]
			if pos++; pos == len(g.order) {
				pos = 0
			}
			q := int(g.fs.queue[f])
			if stashLo == stashHi {
				stashLo, stashHi = 0, g.getBurst(cache, stash, batch)
			}
			if stashLo == stashHi {
				// Pool empty: the packet is lost before it reaches a ring.
				g.bus.AddDrops(q, 1)
				g.dropped.Add(1)
				g.offered.Add(1)
				next += g.arr.next()
				continue
			}
			m := stash[stashLo]
			stash[stashLo] = nil
			stashLo++
			m.SetFrame(g.fs.frame(f))
			m.RxStampNs = next
			if g.tracing() {
				g.layer.lag.add((now - next) / 1000)
			}
			pend[q] = append(pend[q], m)
			pendFlow[q] = append(pendFlow[q], f)
			if len(pend[q]) == burst {
				flush(q)
			}
			next += g.arr.next()
		}
		for q := range pend {
			flush(q)
		}
		if t0 != 0 {
			t1 := metronome.Nanotime()
			g.layer.busyNs += t1 - t0
			g.tr.span(spanBatch, -1, batch, t0, t1, 0)
		}
		if d := next - metronome.Nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	for q := range pend {
		flush(q)
	}
	if stashLo < stashHi {
		cache.PutBurst(stash[stashLo:stashHi])
	}
}
