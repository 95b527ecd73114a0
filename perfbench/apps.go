package main

import (
	"fmt"

	"metronome"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/apps/l3fwd"
	"metronome/internal/packet"
)

// appUnderTest is the application layer of a live deployment: one burst
// processor per queue, and a check of its results against the generator's
// ground truth once the runner has stopped.
type appUnderTest interface {
	procs() []metronome.BurstProcessor
	// delivered counts the packets the application processed.
	delivered() int64
	// check compares the application's results with perFlow, the packets
	// enqueued per flow, and returns one message per mismatch.
	check(fs *flowSet, perFlow []uint32) []string
}

// l3fwdApp is DPDK's l3fwd: one forwarder per queue (each is
// single-writer), sharing one read-only LPM table.
type l3fwdApp struct{ fwd []*l3fwd.Forwarder }

func newL3fwd() (*l3fwdApp, error) {
	ports := []l3fwd.Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 1, 0, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 1, 0, 2}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 3}, GwMAC: packet.MAC{2, 0, 0, 1, 0, 3}},
	}
	first := l3fwd.New(ports)
	for _, r := range fib {
		if err := first.Table.Add(r.prefix, r.length, r.hop); err != nil {
			return nil, fmt.Errorf("install route: %w", err)
		}
	}
	a := &l3fwdApp{fwd: []*l3fwd.Forwarder{first}}
	for len(a.fwd) < nQueues {
		a.fwd = append(a.fwd, &l3fwd.Forwarder{Table: first.Table, Ports: ports})
	}
	return a, nil
}

func (a *l3fwdApp) procs() []metronome.BurstProcessor {
	ps := make([]metronome.BurstProcessor, len(a.fwd))
	for i, f := range a.fwd {
		ps[i] = f
	}
	return ps
}

func (a *l3fwdApp) delivered() int64 {
	var n int64
	for _, f := range a.fwd {
		n += f.Forwarded + f.NoRoute + f.Malformed + f.Expired
	}
	return n
}

func (a *l3fwdApp) check(fs *flowSet, perFlow []uint32) []string {
	var wantFwd, wantNoRoute, fwd, noRoute, bad int64
	for f, c := range perFlow {
		if routable(fs.keys[f].Dst) {
			wantFwd += int64(c)
		} else {
			wantNoRoute += int64(c)
		}
	}
	for _, f := range a.fwd {
		fwd += f.Forwarded
		noRoute += f.NoRoute
		bad += f.Malformed + f.Expired
	}
	var errs []string
	if fwd != wantFwd || noRoute != wantNoRoute || bad != 0 {
		errs = append(errs, fmt.Sprintf("l3fwd verdicts forward=%d noroute=%d malformed+expired=%d, reference forward=%d noroute=%d",
			fwd, noRoute, bad, wantFwd, wantNoRoute))
	}
	return errs
}

// flowApp is FloWatcher sharded per queue.
type flowApp struct{ sh *flowatcher.Sharded }

func newFlowatcher() *flowApp { return &flowApp{sh: flowatcher.NewSharded(nQueues)} }

func (a *flowApp) procs() []metronome.BurstProcessor { return a.sh.Procs() }

func (a *flowApp) delivered() int64 { return a.sh.Packets() + a.sh.Malformed() }

func (a *flowApp) check(fs *flowSet, perFlow []uint32) []string {
	var flows int
	var pkts int64
	for _, c := range perFlow {
		if c > 0 {
			flows++
			pkts += int64(c)
		}
	}
	var errs []string
	if got := a.sh.FlowCount(); got != flows {
		errs = append(errs, fmt.Sprintf("flowatcher flow count %d, generator sent %d flows", got, flows))
	}
	if got := a.sh.Packets(); got != pkts || a.sh.Malformed() != 0 {
		errs = append(errs, fmt.Sprintf("flowatcher packets %d malformed %d, generator sent %d", got, a.sh.Malformed(), pkts))
	}
	// Exact per-flow counts on a spread of flows.
	stride := len(perFlow)/1024 + 1
	for f := 0; f < len(perFlow); f += stride {
		st, ok := a.sh.Flow(fs.keys[f])
		var got int64
		if ok {
			got = st.Packets
		}
		if got != int64(perFlow[f]) {
			errs = append(errs, fmt.Sprintf("flowatcher flow %v counted %d packets, generator sent %d", fs.keys[f], got, perFlow[f]))
			break
		}
	}
	return errs
}
