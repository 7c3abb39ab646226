// Package userstudy simulates the paper's 30-participant user study
// (§VI-E): each participant experiences replays of an NLP application
// under four schemes — baseline, AO, BPA, and the user-oriented UO that
// tunes the thresholds to the individual's preferences — and rates
// satisfaction 1..5 from the response delay and the output accuracy.
//
// The panel substitutes the in-person study (DESIGN.md §2): participants
// differ in delay tolerance, sensitivity to errors, the just-noticeable
// accuracy loss, and their preferred accuracy; ratings carry per-replay
// noise. The Fig. 18 ordering (UO > AO > baseline > BPA) is a consequence
// of the preference model, not an assertion.
package userstudy

import (
	"mobilstm/internal/rng"
	"mobilstm/internal/tradeoff"
)

// Participant models one study subject.
type Participant struct {
	// DelayWeight scales annoyance with response delay (in units of the
	// baseline delay).
	DelayWeight float64
	// ErrWeight scales annoyance per unit of perceived accuracy loss.
	ErrWeight float64
	// JND is the just-noticeable accuracy loss; losses below it do not
	// register (the paper's 2% is the population's typical value).
	JND float64
	// PrefAccuracy is the accuracy the participant asks of the UO
	// scheme.
	PrefAccuracy float64
}

// Panel draws n participants from the population distribution. A
// participant's preferred accuracy tracks their own just-noticeable loss:
// people ask the system for roughly the fidelity they can actually
// perceive, which is what makes per-user tuning (UO) effective.
func Panel(n int, r *rng.RNG) []Participant {
	out := make([]Participant, n)
	for i := range out {
		jnd := r.Uniform(0.012, 0.03)
		out[i] = Participant{
			DelayWeight:  r.Uniform(0.7, 1.7),
			ErrWeight:    r.Uniform(12, 32),
			JND:          jnd,
			PrefAccuracy: 1 - jnd*r.Uniform(0.9, 1.3),
		}
	}
	return out
}

// Scheme identifies a rated configuration.
type Scheme string

// The four schemes of Fig. 18.
const (
	SchemeBaseline Scheme = "baseline"
	SchemeAO       Scheme = "AO"
	SchemeBPA      Scheme = "BPA"
	SchemeUO       Scheme = "UO"
)

// Schemes lists the four schemes in display order.
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemeAO, SchemeBPA, SchemeUO}
}

// rateWithNoise returns one replay's satisfaction score in [1, 5]: 5
// minus the delay annoyance minus the perceived-error annoyance, plus an
// externally supplied noise draw, enabling common-random-number
// comparisons across schemes.
func (p Participant) rateWithNoise(delay, accuracy, noise float64) float64 {
	s := p.Expected(delay, accuracy) + noise
	if s < 1 {
		s = 1
	}
	if s > 5 {
		s = 5
	}
	return s
}

// Expected is the participant's noise-free satisfaction for an operating
// point — what the UO controller maximizes when the user states their
// preferences.
func (p Participant) Expected(delay, accuracy float64) float64 {
	perceived := (1 - accuracy) - p.JND
	if perceived < 0 {
		perceived = 0
	}
	return 5 - p.DelayWeight*delay - p.ErrWeight*perceived
}

// UOSet returns the threshold set the user-oriented scheme selects for
// this participant: the set maximizing their expected satisfaction over
// the application's trade-off curve (§VI-E: the thresholds are tuned
// dynamically from the individual user's preferences).
func (p Participant) UOSet(curve tradeoff.Curve) int {
	best, bestV := 0, -1e18
	for _, pt := range curve {
		if pt.Speedup <= 0 {
			continue
		}
		if v := p.Expected(1/pt.Speedup, pt.Accuracy); v > bestV {
			best, bestV = pt.Set, v
		}
	}
	return best
}

// Result is the averaged study outcome for one application.
type Result struct {
	App    string
	Scores map[Scheme]float64
	// ChosenUOSet records the mean threshold set the UO scheme selected
	// across participants.
	ChosenUOSet float64
}

// Run executes the study for one application given its combined-mode
// trade-off curve: every participant rates `replays` replays per scheme
// (the paper uses 100 replays split 25 per scheme), and scores are
// averaged over the panel.
func Run(app string, curve tradeoff.Curve, panel []Participant, replays int, r *rng.RNG) Result {
	res := Result{App: app, Scores: make(map[Scheme]float64)}
	if len(curve) == 0 || replays <= 0 || len(panel) == 0 {
		return res
	}
	ao := curve.At(curve.AO())
	bpa := curve.At(curve.BPA())
	base := curve.At(0)
	perScheme := replays / len(Schemes())
	if perScheme < 1 {
		perScheme = 1
	}
	var uoSets float64
	for _, p := range panel {
		uo := curve.At(p.UOSet(curve))
		uoSets += float64(uo.Set)
		points := map[Scheme]tradeoff.Point{
			SchemeBaseline: base,
			SchemeAO:       ao,
			SchemeBPA:      bpa,
			SchemeUO:       uo,
		}
		// Common random numbers: every scheme is rated under the same
		// per-replay mood draw, so scheme comparisons reflect the
		// operating points rather than sampling luck.
		sums := map[Scheme]float64{}
		for k := 0; k < perScheme; k++ {
			noise := r.Norm() * 0.3
			for scheme, pt := range points {
				sums[scheme] += p.rateWithNoise(1/pt.Speedup, pt.Accuracy, noise)
			}
		}
		for scheme, sum := range sums {
			res.Scores[scheme] += sum / float64(perScheme)
		}
	}
	for s := range res.Scores {
		res.Scores[s] /= float64(len(panel))
	}
	res.ChosenUOSet = uoSets / float64(len(panel))
	return res
}
