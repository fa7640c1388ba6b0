package core

import (
	"sync/atomic"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/exm"
	"vce/internal/isis"
	"vce/internal/sdm"
)

func fastIsis() isis.Config {
	return isis.Config{
		HeartbeatEvery: 25 * time.Millisecond,
		FailAfter:      500 * time.Millisecond,
		ReplyTimeout:   300 * time.Millisecond,
	}
}

func newVCE(t *testing.T, ws, mimd, simd int) *VCE {
	t.Helper()
	v := New(Options{Isis: fastIsis(), RunTimeout: 8 * time.Second})
	add := func(m arch.Machine) {
		t.Helper()
		if _, err := v.AddMachine(m, MachineConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ws; i++ {
		add(arch.Machine{Name: "ws" + string(rune('0'+i)), Class: arch.Workstation, Speed: 1, OS: "unix", MemoryMB: 64})
	}
	for i := 0; i < mimd; i++ {
		add(arch.Machine{Name: "mimd" + string(rune('0'+i)), Class: arch.MIMD, Speed: 10, OS: "unix", MemoryMB: 512})
	}
	for i := 0; i < simd; i++ {
		add(arch.Machine{Name: "simd" + string(rune('0'+i)), Class: arch.SIMD, Speed: 40, OS: "cmost", MemoryMB: 1024})
	}
	t.Cleanup(v.Shutdown)
	// Let groups converge before use.
	deadline := time.After(10 * time.Second)
	for {
		sizes := v.GroupSizes()
		if sizes[arch.Workstation] == ws &&
			(mimd == 0 || sizes[arch.MIMD] == mimd) &&
			(simd == 0 || sizes[arch.SIMD] == simd) {
			return v
		}
		select {
		case <-deadline:
			t.Fatalf("groups never converged: %v", sizes)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// weatherScript is the §5 example, with LOCAL display.
const weatherScript = `
# weather forecasting application (paper §5)
ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
SYNC 1 "/apps/snow/predictor.vce"
LOCAL "/apps/snow/display.vce"
`

func registerWeatherPrograms(t *testing.T, v *VCE, counter *atomic.Int64) {
	t.Helper()
	for _, p := range []string{
		"/apps/snow/collector.vce",
		"/apps/snow/usercollect.vce",
		"/apps/snow/predictor.vce",
		"/apps/snow/display.vce",
	} {
		if err := v.Registry().Register(p, func(exm.ProgContext) error {
			counter.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunWeatherScriptEndToEnd(t *testing.T) {
	v := newVCE(t, 2, 2, 1)
	var ran atomic.Int64
	registerWeatherPrograms(t, v, &ran)
	report, err := v.RunScript("snow", weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	// 2 collectors + 1 usercollect + 1 predictor + 1 local display.
	if len(report.Placements) != 5 {
		t.Fatalf("placements = %+v", report.Placements)
	}
	if ran.Load() != 5 {
		t.Fatalf("programs ran = %d", ran.Load())
	}
	// Collectors must be on MIMD machines, predictor on the SIMD machine.
	for _, p := range report.Placements {
		switch p.Task {
		case "collector":
			if p.Machine[:4] != "mimd" {
				t.Fatalf("collector on %s, want MIMD group", p.Machine)
			}
		case "predictor":
			if p.Machine[:4] != "simd" {
				t.Fatalf("predictor on %s, want SIMD group", p.Machine)
			}
		case "display":
			if p.Machine != "local" {
				t.Fatalf("display on %s", p.Machine)
			}
		}
	}
	// Binaries were prepared for all candidate targets before the run.
	compiles, _ := v.Compiler().Stats()
	if compiles == 0 {
		t.Fatal("no binaries prepared")
	}
}

func TestRunScriptConditionalUsesLiveAvailability(t *testing.T) {
	v := newVCE(t, 2, 0, 0) // no SIMD machines
	var onWS atomic.Int64
	_ = v.Registry().Register("/apps/p.vce", func(ctx exm.ProgContext) error {
		onWS.Add(1)
		return nil
	})
	src := `
IF AVAIL(SYNC) >= 1 THEN
  SYNC 1 "/apps/p.vce"
ELSE
  WORKSTATION 2 "/apps/p.vce"
ENDIF`
	report, err := v.RunScript("cond", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Placements) != 2 {
		t.Fatalf("placements = %+v (ELSE branch should request 2 workstations)", report.Placements)
	}
	if onWS.Load() != 2 {
		t.Fatalf("ran %d instances", onWS.Load())
	}
}

func TestRunSpecPipeline(t *testing.T) {
	v := newVCE(t, 3, 0, 0)
	var order atomic.Value
	order.Store("")
	_ = v.Registry().Register("/apps/a.vce", func(exm.ProgContext) error {
		order.Store(order.Load().(string) + "a")
		return nil
	})
	_ = v.Registry().Register("/apps/b.vce", func(exm.ProgContext) error {
		order.Store(order.Load().(string) + "b")
		return nil
	})
	spec := sdm.Spec{
		Name: "dep",
		Tasks: []sdm.TaskSpec{
			{Name: "a", Program: "/apps/a.vce", WorkUnits: 1},
			{Name: "b", Program: "/apps/b.vce", WorkUnits: 1},
		},
		Deps: []sdm.Dep{{From: "a", To: "b"}},
	}
	report, err := v.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Waves != 2 {
		t.Fatalf("waves = %d", report.Waves)
	}
	if order.Load().(string) != "ab" {
		t.Fatalf("order = %q", order.Load())
	}
}

func TestRunScriptNoMachinesForClass(t *testing.T) {
	v := newVCE(t, 2, 0, 0)
	_ = v.Registry().Register("/apps/p.vce", func(exm.ProgContext) error { return nil })
	_, err := v.RunScript("app", `SYNC 1 "/apps/p.vce"`)
	if err == nil {
		t.Fatal("script requiring absent SIMD group succeeded")
	}
}

func TestStopMachineAndFailover(t *testing.T) {
	v := newVCE(t, 3, 0, 0)
	var ran atomic.Int64
	_ = v.Registry().Register("/apps/x.vce", func(exm.ProgContext) error {
		ran.Add(1)
		return nil
	})
	// Kill the group's founder (initial leader).
	if err := v.StopMachine("ws0"); err != nil {
		t.Fatal(err)
	}
	if err := v.StopMachine("ws0"); err == nil {
		t.Fatal("double stop succeeded")
	}
	// Wait for failover.
	deadline := time.After(10 * time.Second)
	for {
		if d, ok := v.Daemon("ws1"); ok && d.IsLeader() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("failover never happened")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// StopMachine repointed the group contact at a survivor, so the
	// environment keeps running applications across the failover.
	if contact := v.Contacts()[arch.Workstation]; contact == "" {
		t.Fatal("workstation contact lost after failover")
	}
	report, err := v.RunScript("app", `WORKSTATION 1 "/apps/x.vce"`)
	if err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	if len(report.Placements) != 1 || ran.Load() != 1 {
		t.Fatalf("placements = %+v, ran = %d", report.Placements, ran.Load())
	}
}

func TestGroupSizesAndContacts(t *testing.T) {
	v := newVCE(t, 2, 1, 0)
	sizes := v.GroupSizes()
	if sizes[arch.Workstation] != 2 || sizes[arch.MIMD] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	contacts := v.Contacts()
	if len(contacts) != 2 {
		t.Fatalf("contacts = %v", contacts)
	}
	// Mutating the returned map must not affect the environment.
	delete(contacts, arch.Workstation)
	if len(v.Contacts()) != 2 {
		t.Fatal("Contacts returned aliased map")
	}
}

func TestAddMachineValidationAndDuplicates(t *testing.T) {
	v := New(Options{Isis: fastIsis()})
	defer v.Shutdown()
	if _, err := v.AddMachine(arch.Machine{Name: "", Class: arch.Workstation, Speed: 1}, MachineConfig{}); err == nil {
		t.Fatal("unnamed machine accepted")
	}
	m := arch.Machine{Name: "dup", Class: arch.Workstation, Speed: 1, OS: "unix"}
	if _, err := v.AddMachine(m, MachineConfig{}); err != nil {
		t.Fatal(err)
	}
	// The DB rejects nothing on overwrite, but the daemon's endpoint name
	// collides on the shared in-memory network.
	if _, err := v.AddMachine(m, MachineConfig{}); err == nil {
		t.Fatal("duplicate machine name accepted")
	}
}

func TestLiveFileStagingThroughFacade(t *testing.T) {
	v := newVCE(t, 2, 0, 0)
	if err := v.FS().Create("/data/in.dat", 2048, "archive"); err != nil {
		t.Fatal(err)
	}
	var machine atomic.Value
	_ = v.Registry().Register("/apps/st.vce", func(ctx exm.ProgContext) error {
		machine.Store(ctx.Machine)
		return nil
	})
	spec := sdm.Spec{Name: "st", Tasks: []sdm.TaskSpec{{
		Name: "st", Program: "/apps/st.vce", WorkUnits: 1, Inputs: []string{"/data/in.dat"},
	}}}
	if _, err := v.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	if !v.FS().HasReplica("/data/in.dat", machine.Load().(string)) {
		t.Fatal("facade run did not stage inputs")
	}
}

// TestBothFrontEndsShareOnePipeline pins that a specification and a script
// reach the execution module the same way: a task that arrives without a
// problem class is classified by the design stage, given a language by the
// coding level, and has its binaries prepared before it runs.
func TestBothFrontEndsShareOnePipeline(t *testing.T) {
	v := newVCE(t, 2, 0, 0)
	ws, _ := v.DB().Get("ws0")
	cases := []struct {
		name    string
		program string
		run     func(program string) error
	}{
		{"RunSpec", "/apps/spec.vce", func(program string) error {
			_, err := v.RunSpec(sdm.Spec{Name: "spec", Tasks: []sdm.TaskSpec{{Name: "t", Program: program, WorkUnits: 1}}})
			return err
		}},
		{"RunScript", "/apps/script.vce", func(program string) error {
			_, err := v.RunScript("script", `WORKSTATION 1 "`+program+`"`)
			return err
		}},
	}
	for _, tc := range cases {
		if err := v.Registry().Register(tc.program, func(exm.ProgContext) error { return nil }); err != nil {
			t.Fatal(err)
		}
		before, _ := v.Compiler().Stats()
		if err := tc.run(tc.program); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after, _ := v.Compiler().Stats()
		if after <= before {
			t.Fatalf("%s: no binaries prepared (compiles %d -> %d)", tc.name, before, after)
		}
		bin, ok := v.Compiler().Lookup(tc.program, compilemgr.TargetOf(ws))
		if !ok {
			t.Fatalf("%s: no binary for the workstation target", tc.name)
		}
		// An unclassified, untagged, uncoupled task is asynchronous, and
		// the coding level writes asynchronous tasks in C+MPI.
		if bin.Language != "C+MPI" {
			t.Fatalf("%s: binary language = %q, want C+MPI (classified and coded)", tc.name, bin.Language)
		}
	}
}
