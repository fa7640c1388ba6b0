// Command vcerun is the §5 execution program: it "executes applications on
// behalf of a local user" by reading an application-description script,
// requesting machines from the group leaders (Figure 3), dispatching the
// selected daemons, and waiting for termination.
//
// Usage:
//
//	vcerun -app demo -contacts WORKSTATION=127.0.0.1:41234 script.vce
//	echo 'WORKSTATION 2 "/demo/hello.vce"' | vcerun -contacts WORKSTATION=ADDR -
//
// Conditionals in the script (IF AVAIL(...) ...) are evaluated against the
// live group sizes reported by the contacted daemons.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"vce/internal/arch"
	"vce/internal/exm"
	"vce/internal/script"
	"vce/internal/sdm"
	"vce/internal/transport"
)

func main() {
	var (
		app      = flag.String("app", "app", "application name")
		contacts = flag.String("contacts", "", "comma-separated GROUP=host:port daemon contacts (e.g. WORKSTATION=127.0.0.1:4000,SIMD=...)")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-wave execution timeout")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "vcerun: exactly one script path (or -) required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := readScript(flag.Arg(0))
	if err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	contactMap, err := parseContacts(*contacts)
	if err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	e, err := exm.NewExecProgram(transport.NewTCP(), exm.ExecConfig{
		Name:     "vcerun",
		Contacts: contactMap,
		Timeout:  *timeout,
	})
	if err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	defer e.Close()

	g, err := script.Compile(*app, src, e)
	if err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	if err := sdm.Design(g); err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	if err := sdm.Code(g); err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	log.Printf("vcerun: dispatching %q: %d tasks, %d arcs", *app, g.Len(), len(g.Arcs()))
	report, err := e.Run(g)
	if err != nil {
		log.Fatalf("vcerun: %v", err)
	}
	fmt.Printf("application %q completed in %v (%d waves)\n", *app, report.Elapsed, report.Waves)
	for _, p := range report.Placements {
		fmt.Printf("  %-20s instance %d on %-12s (%v)\n", p.Task, p.Instance, p.Machine, p.Elapsed.Round(time.Millisecond))
	}
}

func readScript(path string) (string, error) {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

func parseContacts(s string) (map[arch.Class]transport.Addr, error) {
	out := make(map[arch.Class]transport.Addr)
	if s == "" {
		return nil, fmt.Errorf("-contacts is required (e.g. WORKSTATION=127.0.0.1:4000)")
	}
	for _, pair := range strings.Split(s, ",") {
		parts := strings.SplitN(pair, "=", 2)
		if len(parts) != 2 || parts[1] == "" {
			return nil, fmt.Errorf("bad contact %q", pair)
		}
		cls, err := arch.ParseClass(parts[0])
		if err != nil {
			return nil, err
		}
		out[cls] = transport.Addr(parts[1])
	}
	return out, nil
}
