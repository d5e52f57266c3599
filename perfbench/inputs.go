package main

import (
	"bytes"
	"fmt"

	"phasefold/internal/callstack"
	"phasefold/internal/core"
	"phasefold/internal/faults"
	"phasefold/internal/sim"
	"phasefold/internal/simapp"
	"phasefold/internal/trace"
)

// traceSpec describes one generated input trace.
type traceSpec struct {
	App      string
	Ranks    int
	Iters    int
	Sampling sim.Duration // 0 keeps the default 1 ms coarse sampling
	Seed     uint64
	Faults   string // fault-injection spec for damaged traces; "" is pristine
}

// input is a generated trace as the program receives it: encoded PFT2
// bytes, plus the simulator's ground truth the benchmark keeps for itself.
type input struct {
	Spec  traceSpec
	Bytes []byte
	Truth *simapp.Truth
}

// generate runs the simulated application and encodes its trace. Damaged
// inputs get the spec's trace-level faults before encoding and its
// stream-level faults after.
func generate(s traceSpec) (*input, error) {
	app, err := simapp.NewApp(s.App)
	if err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	if s.Sampling > 0 {
		opt.SamplingPeriod = s.Sampling
	}
	run, err := core.RunApp(app, simapp.Config{Ranks: s.Ranks, Iterations: s.Iters, Seed: s.Seed, FreqGHz: 2}, opt)
	if err != nil {
		return nil, err
	}
	canonicalStacks(run.Trace)
	var chain *faults.Chain
	if s.Faults != "" {
		if chain, err = faults.Parse(s.Faults, s.Seed); err != nil {
			return nil, err
		}
		chain.ApplyTrace(run.Trace)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", s.App, err)
	}
	data := buf.Bytes()
	if chain != nil {
		data = chain.ApplyStream(data)
	}
	return &input{Spec: s, Bytes: data, Truth: run.Truth}, nil
}

// canonicalStacks renumbers the trace's call stacks in order of first use,
// one identifier per distinct stack. The simulator's interner hashes the
// padding bytes of callstack.Frame, so one stack can receive several
// identifiers, in an order that changes from run to run; renumbering makes
// the encoded bytes a function of the seed alone. The frames are copied
// field by field into zeroed memory, so their padding hashes alike.
func canonicalStacks(tr *trace.Trace) {
	old, fresh := tr.Stacks, callstack.NewInterner()
	for _, rd := range tr.Ranks {
		for i := range rd.Samples {
			s := &rd.Samples[i]
			st, ok := old.Get(s.Stack)
			if !ok {
				continue
			}
			clean := make(callstack.Stack, len(st))
			for k := range st {
				clean[k].Routine = st[k].Routine
				clean[k].Line = st[k].Line
			}
			s.Stack = fresh.Intern(clean)
		}
	}
	tr.Stacks = fresh
}

// splitmix returns the i-th value of the SplitMix64 sequence seeded by seed:
// the benchmark derives every input seed from the run's --seed with it.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
