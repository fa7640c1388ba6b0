// Weather: the §5 weather-forecasting application, end to end. Two data
// collectors run on the MIMD group, a user-input collector on a
// workstation, the predictor on the SIMD machine, and the display on the
// user's own workstation (LOCAL) — all communicating over VCE channels, with
// the script's conditional vocabulary choosing the predictor's home.
package main

import (
	"fmt"
	"log"
	"time"

	"vce"
	"vce/internal/channel"
)

// waitForPort blocks until the named port is connected to the channel (the
// 1994 equivalent: tasks rendezvous on their assigned channels at startup).
// It fails after five seconds instead of letting the caller send to nobody.
func waitForPort(ch *channel.Channel, id channel.PortID) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range ch.Ports() {
			if p == id {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("channel %s: port %q never connected", ch.Name(), id)
}

func main() {
	env := vce.New(vce.Options{})
	defer env.Shutdown()

	// A heterogeneous network: MIMD group, SIMD group, workstation group.
	machines := []vce.Machine{
		{Name: "mimd0", Class: vce.MIMD, Speed: 10, OS: "unix"},
		{Name: "mimd1", Class: vce.MIMD, Speed: 10, OS: "unix"},
		{Name: "cm5", Class: vce.SIMD, Speed: 40, OS: "cmost"},
		{Name: "ws0", Class: vce.Workstation, Speed: 1, OS: "unix"},
		{Name: "ws1", Class: vce.Workstation, Speed: 1, OS: "unix"},
	}
	for _, m := range machines {
		if _, err := env.AddMachine(m, vce.MachineConfig{}); err != nil {
			log.Fatal(err)
		}
	}

	reg := env.Registry()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Collectors: each pushes five observations onto the "obs" channel.
	must(reg.Register("/apps/snow/collector.vce", func(ctx vce.ProgContext) error {
		ch := ctx.Hub.Channel("obs")
		port, err := ch.CreatePort(channel.PortID(fmt.Sprintf("collector-%d", ctx.Instance)))
		if err != nil {
			return err
		}
		if err := waitForPort(ch, "predictor"); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			reading := fmt.Sprintf("station%d: %d cm", ctx.Instance, 3*(i+1))
			if err := port.SendTo("predictor", []byte(reading)); err != nil {
				return err
			}
		}
		return nil
	}))

	// User collector: one manual observation from a workstation.
	must(reg.Register("/apps/snow/usercollect.vce", func(ctx vce.ProgContext) error {
		ch := ctx.Hub.Channel("obs")
		port, err := ch.CreatePort("usercollect")
		if err != nil {
			return err
		}
		if err := waitForPort(ch, "predictor"); err != nil {
			return err
		}
		return port.SendTo("predictor", []byte("spotter report: 5 cm"))
	}))

	// Predictor: consumes 11 observations (2 collectors x 5 + 1 user),
	// produces a forecast on the "viz" channel.
	must(reg.Register("/apps/snow/predictor.vce", func(ctx vce.ProgContext) error {
		obs := ctx.Hub.Channel("obs")
		in, err := obs.CreatePort("predictor")
		if err != nil {
			return err
		}
		total := 0
		for i := 0; i < 11; i++ {
			m, ok := in.Recv()
			if !ok {
				return fmt.Errorf("obs channel closed early")
			}
			var station string
			var cm int
			if _, err := fmt.Sscanf(string(m.Payload), "%s %d cm", &station, &cm); err == nil {
				total += cm
			}
		}
		viz := ctx.Hub.Channel("viz")
		out, err := viz.CreatePort("predictor-out")
		if err != nil {
			return err
		}
		if err := waitForPort(viz, "display"); err != nil {
			return err
		}
		forecast := fmt.Sprintf("accumulated snowfall %d cm: expect %s", total,
			map[bool]string{true: "heavy snow", false: "flurries"}[total > 60])
		return out.SendTo("display", []byte(forecast))
	}))

	// Display: runs LOCAL on the user's workstation.
	must(reg.Register("/apps/snow/display.vce", func(ctx vce.ProgContext) error {
		viz := ctx.Hub.Channel("viz")
		port, err := viz.CreatePort("display")
		if err != nil {
			return err
		}
		m, ok := port.Recv()
		if !ok {
			return fmt.Errorf("viz channel closed early")
		}
		fmt.Printf("FORECAST (on %s): %s\n", ctx.Machine, m.Payload)
		return nil
	}))

	// The §5 script, extended with the paper's future vocabulary: a
	// conditional that falls back to the MIMD group if no synchronous
	// machine is available, and explicit communication requirements.
	src := `# weather forecasting application (paper §5)
ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
IF AVAIL(SYNC) >= 1 THEN
  SYNC 1 "/apps/snow/predictor.vce"
ELSE
  ASYNC 1 "/apps/snow/predictor.vce"
ENDIF
LOCAL "/apps/snow/display.vce"
COMM "/apps/snow/collector.vce" -> "/apps/snow/predictor.vce" CHANNEL obs
COMM "/apps/snow/predictor.vce" -> "/apps/snow/display.vce" CHANNEL viz
HINT "/apps/snow/predictor.vce" RUNTIME 120s`

	report, err := env.RunScript("snow", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplacements:")
	for _, p := range report.Placements {
		fmt.Printf("  %-12s instance %d -> %s\n", p.Task, p.Instance, p.Machine)
	}
}
