package bench

import (
	"fmt"
	"runtime"
	"sync"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
)

// Work names one unit a render target needs before it can draw: either
// a simulation of App on Cfg or (View=true) a Cilkview analysis of App.
// Size and Grain are absolute — the worklist constructors fill them in
// from the suite — so a Work item fully determines its result.
type Work struct {
	Cfg   string // machine configuration; unused when View is set
	App   string
	Size  apps.Size
	Grain int
	View  bool // Cilkview analysis instead of a simulation

	// Open, when set, makes this item an open-system cell (OpenRun of
	// the spec on Cfg under OpenScenario/OpenFaultSeed) instead of a
	// closed-loop simulation; App/Size/Grain/View are unused.
	Open          *openload.Spec
	OpenScenario  string
	OpenFaultSeed uint64
}

// key collapses duplicate work items (e.g. the bT/MESI baseline every
// figure shares).
func (w Work) key() string {
	if w.Open != nil {
		return fmt.Sprintf("o|%s|%s|%d|%s", w.Cfg, w.OpenScenario, w.OpenFaultSeed, w.Open.Key())
	}
	v := "r"
	if w.View {
		v = "v"
	}
	return fmt.Sprintf("%s|%s|%s|%d|%d", v, w.Cfg, w.App, int(w.Size), w.Grain)
}

// Prewarm executes every work item, fanning them out over a bounded
// pool of jobs workers (jobs <= 0 means runtime.NumCPU()). Duplicate
// items are collapsed, and the suite's singleflight layer dedups any
// remaining overlap, so each distinct simulation runs exactly once.
// Results land in the same caches the serial render paths read; a
// render pass after Prewarm therefore does no simulation work and
// emits output in its usual fixed order.
//
// Prewarm returns the first error it saw, but warms every other item
// regardless; the render pass will surface the same error with its
// usual per-target context.
func (s *Suite) Prewarm(work []Work, jobs int) error {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	seen := make(map[string]bool, len(work))
	queue := make([]Work, 0, len(work))
	for _, w := range work {
		if k := w.key(); !seen[k] {
			seen[k] = true
			queue = append(queue, w)
		}
	}

	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, w := range queue {
		wg.Add(1)
		sem <- struct{}{}
		go func(w Work) {
			defer wg.Done()
			defer func() { <-sem }()
			var err error
			if w.Open != nil {
				_, err = s.OpenRun(w.Cfg, w.OpenScenario, w.OpenFaultSeed, *w.Open)
			} else if w.View {
				_, err = s.at(w.Size, w.Grain).View(w.App)
			} else {
				_, err = s.at(w.Size, w.Grain).Run(w.Cfg, w.App)
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// run and view build Work items at the suite's own size/grain.
func (s *Suite) runWork(cfg, app string) Work {
	return Work{Cfg: cfg, App: app, Size: s.Size, Grain: s.Grain}
}

func (s *Suite) viewWork(app string) Work {
	return Work{App: app, Size: s.Size, Grain: s.Grain, View: true}
}

// allBTConfigs is the bT/MESI baseline plus the six HCC/HCC-DTS
// configurations — the column set Figures 5-8 share.
func allBTConfigs() []string {
	cfgs := []string{"bT/MESI"}
	cfgs = append(cfgs, HCCConfigs...)
	cfgs = append(cfgs, DTSConfigs...)
	return cfgs
}

// Table3Work lists the runs and analyses Table3 performs.
func (s *Suite) Table3Work(appNames []string) []Work {
	var work []Work
	cfgs := []string{"IOx1", "O3x1", "O3x4", "O3x8"}
	cfgs = append(cfgs, allBTConfigs()...)
	for _, app := range appNames {
		work = append(work, s.viewWork(app))
		for _, cfg := range cfgs {
			work = append(work, s.runWork(cfg, app))
		}
	}
	return work
}

// Table4Work lists the runs Table4 performs.
func (s *Suite) Table4Work(appNames []string) []Work {
	var work []Work
	for _, app := range appNames {
		for _, p := range []string{"dnv", "gwt", "gwb"} {
			work = append(work,
				s.runWork("bT/HCC-"+p, app),
				s.runWork("bT/HCC-DTS-"+p, app))
		}
	}
	return work
}

// Table5Work lists the 256-core weak-scaling runs Table5 performs
// (at the scaled-up input size).
func (s *Suite) Table5Work() []Work {
	size := sizeUp(s.Size)
	var work []Work
	for _, app := range Table5Apps {
		for _, cfg := range []string{"O3x1", "bT256/MESI", "bT256/HCC-gwb", "bT256/HCC-DTS-gwb"} {
			work = append(work, Work{Cfg: cfg, App: app, Size: size, Grain: s.Grain})
		}
	}
	return work
}

// Fig4Grains is the granularity sweep Fig4 runs when given no explicit
// grain list.
var Fig4Grains = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig4Work lists the granularity-sweep runs Fig4 performs (nil grains
// means Fig4Grains, matching Fig4 itself).
func (s *Suite) Fig4Work(grains []int) []Work {
	if len(grains) == 0 {
		grains = Fig4Grains
	}
	work := []Work{s.runWork("IOx1", "ligra-tc")}
	for _, g := range grains {
		work = append(work,
			Work{Cfg: "tiny64", App: "ligra-tc", Size: s.Size, Grain: g},
			Work{App: "ligra-tc", Size: s.Size, Grain: g, View: true})
	}
	return work
}

// FigsWork lists the runs Figures 5-8 perform (they share one column
// set, so one worklist serves all four).
func (s *Suite) FigsWork(appNames []string) []Work {
	var work []Work
	for _, app := range appNames {
		for _, cfg := range allBTConfigs() {
			work = append(work, s.runWork(cfg, app))
		}
	}
	return work
}

// ULIWork lists the runs ULIReport performs.
func (s *Suite) ULIWork(appNames []string) []Work {
	var work []Work
	for _, app := range appNames {
		for _, cfg := range DTSConfigs {
			work = append(work, s.runWork(cfg, app))
		}
	}
	return work
}

// EnergyWork lists the runs EnergyReport performs.
func (s *Suite) EnergyWork(appNames []string) []Work {
	var work []Work
	for _, app := range appNames {
		for _, cfg := range []string{"O3x8", "bT/MESI", "bT/HCC-gwb", "bT/HCC-DTS-gwb"} {
			work = append(work, s.runWork(cfg, app))
		}
	}
	return work
}

// TargetWork returns the worklist for a named paperbench render target
// (false for targets with no pre-declared worklist, e.g. chaos, which
// parallelizes internally).
func (s *Suite) TargetWork(target string, appNames []string) ([]Work, bool) {
	switch target {
	case "table3":
		return s.Table3Work(appNames), true
	case "table4":
		return s.Table4Work(appNames), true
	case "table5":
		return s.Table5Work(), true
	case "fig4":
		return s.Fig4Work(nil), true
	case "fig5", "fig6", "fig7", "fig8":
		return s.FigsWork(appNames), true
	case "uli":
		return s.ULIWork(appNames), true
	case "energy":
		return s.EnergyWork(appNames), true
	case "open":
		return s.OpenWork(DefaultOpenSweep(s.Size)), true
	}
	return nil, false
}
