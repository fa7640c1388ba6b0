package migrate

import (
	"errors"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/sim"
)

func fullRepertoire(t *testing.T) (*Picker, *Redundant, *Checkpointer) {
	t.Helper()
	red := NewRedundant()
	ck := NewCheckpointer(10 * time.Second)
	rec := &Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second}}
	p, err := NewPicker(red, AddressSpace{}, ck, rec)
	if err != nil {
		t.Fatal(err)
	}
	return p, red, ck
}

func TestNewPickerValidation(t *testing.T) {
	if _, err := NewPicker(); err == nil {
		t.Fatal("empty repertoire accepted")
	}
}

func TestPickerPrefersRedundantCopy(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	p, red, _ := fullRepertoire(t)
	if _, err := red.Launch(c, "job", 100, 1<<20, []*sim.Machine{ms["src"], ms["dst"]}, nil); err != nil {
		t.Fatal(err)
	}
	var chosen string
	c.Sim.At(5*time.Second, func() {
		task := ms["src"].AppendTasks(nil)[0]
		s, cost, err := p.Choose(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("choose: %v", err)
			return
		}
		chosen = s.Name()
		if cost != 0 {
			t.Errorf("redundant estimate = %v, want 0", cost)
		}
	})
	c.Sim.Run()
	if chosen != "redundant" {
		t.Fatalf("picker chose %q with a live redundant copy available", chosen)
	}
}

func TestPickerHomogeneousPrefersAddressSpace(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	p, _, _ := fullRepertoire(t)
	task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
	_ = ms["src"].AddTask(task)
	var chosen string
	c.Sim.At(5*time.Second, func() {
		s, _, err := p.Choose(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("choose: %v", err)
			return
		}
		chosen = s.Name()
	})
	c.Sim.Run()
	// Address-space: 1s transfer, no redo. Checkpoint: 1s transfer + 5s
	// redo (no checkpoint yet). Recompile: 60s compile. Addr wins.
	if chosen != "address-space" {
		t.Fatalf("picker chose %q on a homogeneous pair", chosen)
	}
}

func TestPickerHeterogeneousFallsBackToRecompile(t *testing.T) {
	c := sim.NewCluster()
	src, _ := c.AddMachine(ws("src"))
	dst, _ := c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 1, OS: "cmost"})
	p, _, _ := fullRepertoire(t)
	task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
	_ = src.AddTask(task)
	s, _, err := p.Choose(c, task, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "recompile" {
		t.Fatalf("picker chose %q across architectures", s.Name())
	}
}

func TestPickerChoosesCheckpointWhenFresh(t *testing.T) {
	// With a current checkpoint replica already at the destination and a
	// fresh checkpoint (no redo), checkpointing estimates 0 and beats the
	// address-space transfer.
	c, ms := newCluster(t, "src", "dst")
	p, _, ck := fullRepertoire(t)
	task := &sim.Task{ID: "t", Work: 100, ImageBytes: 8 << 20, Checkpointable: true}
	_ = ms["src"].AddTask(task)
	ck.Start(c)
	var chosen string
	// At t=20s the last checkpoint was at 20s exactly (interval 10s):
	// lost work 0; pre-replicate the record to dst just before.
	c.Sim.At(20500*time.Millisecond, func() {
		if err := task.ReplicateCheckpoint(ms["dst"]); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	c.Sim.At(21*time.Second, func() {
		s, cost, err := p.Choose(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("choose: %v", err)
			return
		}
		chosen = s.Name()
		// 1 work unit redone (1s) still beats 8s of image transfer.
		if cost > 2*time.Second {
			t.Errorf("checkpoint estimate = %v", cost)
		}
	})
	c.Sim.Run()
	if chosen != "checkpoint" {
		t.Fatalf("picker chose %q with a warm checkpoint replica", chosen)
	}
}

func TestPickerMigrateDelegatesAndCounts(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	p, _, _ := fullRepertoire(t)
	task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20}
	_ = ms["src"].AddTask(task)
	var res Result
	c.Sim.At(5*time.Second, func() {
		var err error
		res, err = p.Migrate(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Sim.Run()
	if res.Strategy != "address-space" {
		t.Fatalf("delegated to %q", res.Strategy)
	}
	if p.Picks["address-space"] != 1 {
		t.Fatalf("picks = %v", p.Picks)
	}
	if !task.Finished() {
		t.Fatal("migrated task never finished")
	}
}

func TestPickerNoApplicableStrategy(t *testing.T) {
	// Heterogeneous pair with only homogeneity-requiring strategies.
	c := sim.NewCluster()
	src, _ := c.AddMachine(ws("src"))
	dst, _ := c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 1, OS: "cmost"})
	p, err := NewPicker(AddressSpace{})
	if err != nil {
		t.Fatal(err)
	}
	task := &sim.Task{ID: "t", Work: 1, ImageBytes: 1}
	_ = src.AddTask(task)
	if err := p.CanMigrate(task, src, dst); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("CanMigrate = %v", err)
	}
	if _, err := p.Migrate(c, task, src, dst); err == nil {
		t.Fatal("migrate with empty applicable set succeeded")
	}
}

func TestPickerRejectsNonEstimator(t *testing.T) {
	if _, err := NewPicker(fakeStrategy{}); err == nil {
		t.Fatal("non-estimator strategy accepted")
	}
}

type fakeStrategy struct{}

func (fakeStrategy) Name() string                                           { return "fake" }
func (fakeStrategy) CanMigrate(*sim.Task, *sim.Machine, *sim.Machine) error { return nil }
func (fakeStrategy) Migrate(*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine) (Result, error) {
	return Result{}, nil
}
