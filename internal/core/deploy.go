package core

import (
	"fmt"

	"mithra/internal/classifier"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/parallel"
	"mithra/internal/stats"
	"mithra/internal/threshold"
	"mithra/internal/trace"
)

// Deployment is a compiled MITHRA configuration for one quality
// guarantee: the tuned threshold knob plus the classifiers pre-trained
// against it. It corresponds to what the paper's compiler encodes into
// the program binary alongside the NPU configuration.
type Deployment struct {
	Ctx *Context
	G   stats.Guarantee
	// Th is the statistical optimizer's result (the quality-control
	// knob).
	Th threshold.Result
	// Table and Neural are the pre-trained hardware classifiers.
	Table  *classifier.Table
	Neural *classifier.Neural
	// RandomRate is the invocation rate of the tuned random-filtering
	// baseline (the highest rate whose quality still certifies the same
	// guarantee on the compile datasets).
	RandomRate float64
	// TableGuard is the guard band the table auto-tuner selected from
	// {1, 0.7, 0.45}.
	TableGuard float64
	// samples are the labeled training tuples, retained so experiment
	// sweeps (e.g. the Figure 11 Pareto analysis) can retrain table
	// variants against the same threshold; sampleErrs holds the raw
	// accelerator errors aligned with samples (needed by error-regression
	// baselines).
	samples    []classifier.Sample
	sampleErrs []float64
	// obs is the context's telemetry scoped under this deployment's span,
	// so training and evaluation spans nest under the deployment that
	// produced them.
	obs *obs.Obs
}

// TrainingSamples exposes the labeled tuples this deployment's
// classifiers were trained on.
func (d *Deployment) TrainingSamples() []classifier.Sample { return d.samples }

// TrainingErrors exposes the raw accelerator errors aligned with
// TrainingSamples (the error-value a Rumba-style regressor predicts).
func (d *Deployment) TrainingErrors() []float64 { return d.sampleErrs }

// TrainTableVariant trains a table-based classifier with an alternative
// configuration against this deployment's threshold (the Figure 11 design
// space exploration).
func (d *Deployment) TrainTableVariant(cfg classifier.TableConfig) (*classifier.Table, error) {
	return classifier.TrainTable(cfg, d.samples)
}

// Deploy tunes the threshold for guarantee g (Algorithm 1), generates the
// classifier training data, and trains both hardware classifiers.
func (ctx *Context) Deploy(g stats.Guarantee) (*Deployment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	span := ctx.Opts.Obs.StartSpan("deploy",
		obs.A("bench", ctx.Bench.Name()), obs.A("quality", g.QualityLoss))
	defer span.End()
	oscope := ctx.Opts.Obs.Scope(span)

	topts := ctx.Opts.ThOpts
	if topts.Workers == 0 {
		topts.Workers = ctx.Opts.Parallelism
	}
	topts.Obs = oscope
	th, err := threshold.FindBisect(ctx.Bench, ctx.Compile, g, topts)
	if err != nil {
		return nil, fmt.Errorf("core: threshold search for %s: %w", ctx.Bench.Name(), err)
	}

	tuples := ctx.trainingTuples()
	d := &Deployment{Ctx: ctx, G: g, Th: th, obs: oscope,
		samples: tuples.label(th.Threshold), sampleErrs: tuples.errs}

	tabSpan := span.Child("classifier.table.train")
	tab, tabGuard, err := d.autoTuneTable(tuples)
	tabSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: table tuning for %s: %w", ctx.Bench.Name(), err)
	}
	d.Table = tab
	d.TableGuard = tabGuard
	neu, err := d.autoBiasNeural()
	if err != nil {
		return nil, fmt.Errorf("core: neural training for %s: %w", ctx.Bench.Name(), err)
	}
	d.Neural = neu
	randSpan := span.Child("random.tune")
	d.RandomRate = ctx.tuneRandomRate(g)
	randSpan.End()
	return d, nil
}

// tupleSet is the sampled profiling data classifier training labels are
// derived from: accelerator input vectors with their measured errors.
// Keeping the raw errors (rather than pre-binarized labels) lets the
// configuration search relabel cheaply for guard-band candidates.
type tupleSet struct {
	ins  [][]float64
	errs []float64
}

// label binarizes the tuples against a threshold.
func (ts tupleSet) label(th float64) []classifier.Sample {
	out := make([]classifier.Sample, len(ts.ins))
	for i := range ts.ins {
		out[i] = classifier.Sample{In: ts.ins[i], Bad: ts.errs[i] > th}
	}
	return out
}

// scoringDatasets returns the held-out half of the input-bearing compile
// datasets (trainingTuples samples only the first half), so configuration
// selection sees real generalization instead of tuple memorization.
func (ctx *Context) scoringDatasets() []threshold.Dataset {
	nTrain := ctx.Opts.TrainDatasets
	if nTrain > len(ctx.Compile) {
		nTrain = len(ctx.Compile)
	}
	hold := ctx.Compile[nTrain/2 : nTrain]
	if len(hold) == 0 {
		hold = ctx.Compile[:nTrain]
	}
	return hold
}

// scoreClassifier replays the scoring datasets under a classifier's
// decisions and reports (success fraction, invocation rate, miss rate).
func (d *Deployment) scoreClassifier(c classifier.Classifier) (succFrac, invRate, fnRate float64) {
	hold := d.Ctx.scoringDatasets()
	var totalInv, accel, fn, succ int
	for _, ds := range hold {
		tr := ds.Tr
		nPrec := 0
		buf := make([]float64, tr.InDim)
		dec := func(i int) bool {
			p := c.Classify(tr.InputInto(i, buf))
			if p {
				nPrec++
			} else if tr.MaxErr[i] > d.Th.Threshold {
				fn++
			}
			return p
		}
		out := tr.Replay(d.Ctx.Bench, ds.In, nil, dec)
		if d.Ctx.Bench.Metric().Loss(tr.PreciseOut, out) <= d.G.QualityLoss {
			succ++
		}
		totalInv += tr.N
		accel += tr.N - nPrec
	}
	return float64(succ) / float64(len(hold)),
		float64(accel) / float64(totalInv),
		float64(fn) / float64(totalInv)
}

// pickBest applies the selection rule shared by the table and neural
// tuning: maximize invocation rate among candidates whose held-out
// success fraction meets the guarantee; otherwise take the highest
// success fraction, breaking ties toward fewer misses.
type tunedCandidate struct {
	succFrac, invRate, fnRate float64
	idx                       int
}

func pickBest(cands []tunedCandidate, target float64) int {
	best := cands[0]
	for _, c := range cands[1:] {
		switch {
		case c.succFrac >= target && best.succFrac >= target:
			if c.invRate > best.invRate {
				best = c
			}
		case c.succFrac >= target:
			best = c
		case best.succFrac >= target:
			// keep best
		case c.succFrac > best.succFrac || (c.succFrac == best.succFrac && c.fnRate < best.fnRate):
			best = c
		}
	}
	return best.idx
}

// autoTuneTable implements the compiler's per-application table
// configuration step (paper §IV-A: the MISR configuration "is decided at
// compile time for each application"): quantization width, combination
// rule, and label guard band are swept, each candidate is trained on the
// tuples and scored on held-out training datasets.
func (d *Deployment) autoTuneTable(tuples tupleSet) (*classifier.Table, float64, error) {
	base := d.Ctx.Opts.TableCfg
	// The label-free half of training (quantizer fit and pool hashing)
	// depends only on the quantization width, so it runs once per width
	// and the candidates of that width share it read-only.
	widths := []int{3, 4, 6}
	preps, err := parallel.Map(d.Ctx.Opts.Parallelism, len(widths),
		func(i int) (*classifier.TablePrep, error) {
			cfg := base
			cfg.QuantBits = widths[i]
			return classifier.PrepareTable(cfg, tuples.ins)
		})
	if err != nil {
		return nil, 0, err
	}
	// Enumerate the candidate grid up front: each candidate is trained and
	// scored independently on the worker pool (samples per guard band are
	// labeled once and shared read-only), and the selection below folds the
	// results in the same grid order the serial sweep visited.
	type tableSpec struct {
		guard   float64
		samples []classifier.Sample
		cfg     classifier.TableConfig
		prep    *classifier.TablePrep
	}
	var specs []tableSpec
	for _, guard := range []float64{1.0, 0.7, 0.45} {
		samples := tuples.label(d.Th.Threshold * guard)
		for wi, bits := range widths {
			for _, comb := range []classifier.Combine{classifier.CombineMajority, classifier.CombineAll, classifier.CombineAny} {
				cfg := base
				cfg.QuantBits = bits
				cfg.Combine = comb
				specs = append(specs, tableSpec{guard: guard, samples: samples, cfg: cfg, prep: preps[wi]})
			}
		}
	}
	type tableCand struct {
		tab  *classifier.Table
		cand tunedCandidate
	}
	d.obs.Counter("classifier.table.candidates").Add(int64(len(specs)))
	scored, err := parallel.Map(d.Ctx.Opts.Parallelism, len(specs),
		func(i int) (tableCand, error) {
			tab, err := specs[i].prep.Train(specs[i].cfg, specs[i].samples)
			if err != nil {
				return tableCand{}, err
			}
			succ, inv, fn := d.scoreClassifier(tab)
			return tableCand{tab: tab,
				cand: tunedCandidate{succFrac: succ, invRate: inv, fnRate: fn, idx: i}}, nil
		})
	if err != nil {
		return nil, 0, err
	}
	cands := make([]tunedCandidate, len(scored))
	for i, s := range scored {
		cands[i] = s.cand
	}
	best := pickBest(cands, d.G.SuccessRate)
	return scored[best].tab, specs[best].guard, nil
}

// autoBiasNeural trains the neural classifier once and chooses its
// conservative decision bias on the held-out training datasets (the bias
// only shifts the output comparison, so candidates share the network).
func (d *Deployment) autoBiasNeural() (*classifier.Neural, error) {
	nopts := d.Ctx.Opts.NeuralOpts
	if nopts.Parallelism == 0 {
		nopts.Parallelism = d.Ctx.Opts.Parallelism
	}
	nopts.Obs = d.obs
	base, err := classifier.TrainNeural(d.Ctx.Bench.InputDim(), d.samples, nopts)
	if err != nil {
		return nil, err
	}
	// The upper biases make the classifier fall back almost always —
	// the correct degradation when a threshold is too tight for the
	// network to separate (quality survives at the cost of gains). Each
	// bias candidate shares the trained network but owns its scratch
	// (WithBias), so scoring runs on the worker pool.
	biases := []float64{0, 0.15, 0.3, 0.5, 0.75, 0.95}
	type biasCand struct {
		neu  *classifier.Neural
		cand tunedCandidate
	}
	scored, err := parallel.Map(d.Ctx.Opts.Parallelism, len(biases),
		func(i int) (biasCand, error) {
			neu := base.WithBias(biases[i])
			succ, inv, fn := d.scoreClassifier(neu)
			return biasCand{neu: neu,
				cand: tunedCandidate{succFrac: succ, invRate: inv, fnRate: fn, idx: i}}, nil
		})
	if err != nil {
		return nil, err
	}
	cands := make([]tunedCandidate, len(scored))
	for i, s := range scored {
		cands[i] = s.cand
	}
	return scored[pickBest(cands, d.G.SuccessRate)].neu, nil
}

// trainingTuples samples the classifier profiling data (paper §III-B)
// from the first half of the input-bearing compile datasets; the second
// half is reserved for configuration scoring.
func (ctx *Context) trainingTuples() tupleSet {
	nTrain := ctx.Opts.TrainDatasets
	if nTrain > len(ctx.Compile) {
		nTrain = len(ctx.Compile)
	}
	if half := nTrain / 2; half >= 1 {
		nTrain = half
	}
	total := 0
	for i := 0; i < nTrain; i++ {
		total += ctx.Compile[i].Tr.N
	}
	budget := ctx.Opts.MaxTrainSamples
	if budget <= 0 {
		budget = 20000
	}
	stride := total/budget + 1
	var ts tupleSet
	for i := 0; i < nTrain; i++ {
		tr := ctx.Compile[i].Tr
		for inv := 0; inv < tr.N; inv += stride {
			ts.ins = append(ts.ins, tr.Input(inv))
			ts.errs = append(ts.errs, tr.MaxErr[inv])
		}
	}
	return ts
}

// tuneRandomRate finds the highest random-filtering invocation rate whose
// final quality still certifies g on the compile datasets. This makes the
// random baseline maximally competitive at every quality level, as in the
// paper's Figure 9 comparison.
func (ctx *Context) tuneRandomRate(g stats.Guarantee) float64 {
	// Each dataset draws its filter decisions from its own index-keyed RNG
	// stream, so the replays are independent and run on the worker pool;
	// successes land in per-dataset slots and fold serially.
	certifies := func(rate float64) bool {
		ok := make([]bool, len(ctx.Compile))
		if err := parallel.ForEach(ctx.Opts.Parallelism, len(ctx.Compile), func(di int) error {
			d := ctx.Compile[di]
			rng := mathx.NewRNG(ctx.Opts.Seed).Split(0xF00D + uint64(di))
			dec := func(int) bool { return !rng.Bool(rate) }
			ok[di] = d.Tr.QualityAt(ctx.Bench, d.In, dec) <= g.QualityLoss
			return nil
		}); err != nil {
			panic(err)
		}
		succ := 0
		for _, s := range ok {
			if s {
				succ++
			}
		}
		return g.Holds(succ, len(ctx.Compile))
	}
	if certifies(1) {
		return 1
	}
	if !certifies(0) {
		return 0
	}
	lo, hi := 0.0, 1.0 // lo certifies, hi does not
	for iter := 0; iter < 20; iter++ {
		mid := (lo + hi) / 2
		if certifies(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Decisions returns the decision vector a design produces on a captured
// dataset trace (which must have kernel inputs for the classifier-backed
// designs).
func (d *Deployment) Decisions(design Design, datasetIndex int, tr *trace.Trace) trace.Decision {
	switch design {
	case DesignOracle:
		return tr.ThresholdOracle(d.Th.Threshold)
	case DesignNone:
		return trace.AllApprox
	case DesignRandom:
		rng := mathx.NewRNG(d.Ctx.Opts.Seed).Split(0xBEEF + uint64(datasetIndex))
		return func(int) bool { return !rng.Bool(d.RandomRate) }
	case DesignTable, DesignTableSW:
		buf := make([]float64, tr.InDim)
		return func(i int) bool { return d.Table.Classify(tr.InputInto(i, buf)) }
	case DesignNeural, DesignNeuralSW:
		buf := make([]float64, tr.InDim)
		return func(i int) bool { return d.Neural.Classify(tr.InputInto(i, buf)) }
	}
	panic(fmt.Sprintf("core: unknown design %v", design))
}
