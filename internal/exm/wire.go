// Package exm implements the Execution Module's runtime manager (§3.1.2,
// §5): the scheduling/dispatching daemon that runs on every machine, the
// group-leader bidding protocol of Figure 3, and the execution program that
// runs applications on behalf of a user.
//
// The protocol follows the paper's pseudocode: the execution program sends a
// resource request to a group leader; the leader broadcasts it to the group;
// "each machine, based on current load and availability, sends a 'bid' back
// to the group leader"; the leader sorts bids by load and returns the best
// processors or an allocation failure; the execution program then ships
// execution information to the selected daemons and awaits termination.
package exm

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"vce/internal/transport"
)

// Point-to-point and cast message kinds. A point message travels under its
// kind as a bare transport message, so its sender is the envelope's From and
// the daemon answers there.
const (
	kindRequest  = "exm.request"   // exec program -> leader (or any daemon, forwarded)
	kindBidCast  = "exm.bids"      // leader -> group (cast, replies are bids)
	kindAlloc    = "exm.alloc"     // leader -> exec program
	kindExec     = "exm.exec"      // exec program -> selected daemon
	kindDone     = "exm.done"      // daemon -> exec program
	kindKill     = "exm.kill"      // exec program -> daemon (relayed to group)
	kindKillCast = "exm.kill_cast" // daemon -> group (cast)
	kindAvailReq = "exm.avail_req" // exec program -> any daemon (script AVAIL)
	kindAvailRep = "exm.avail_rep" // daemon -> exec program
)

// requestMsg asks a group for machines. It names its reply address because
// a non-leader forwards it, and the leader then hears it from the forwarder.
type requestMsg struct {
	ReqID   uint64
	App     string
	Task    string
	Program string
	Need    int
	ReplyTo transport.Addr // exec program address
}

// bidReqMsg is the leader's broadcast to the group.
type bidReqMsg struct {
	App  string
	Task string
}

// bidMsg is one daemon's load description.
type bidMsg struct {
	Machine  string
	Load     float64
	Capacity int
}

// allocMsg answers a requestMsg.
type allocMsg struct {
	ReqID    uint64
	App      string
	Task     string
	Machines []string // daemon addresses, best (least loaded) first
	Names    []string // machine names aligned with Machines
	Err      string
}

// execMsg ships one task instance to a daemon.
type execMsg struct {
	App      string
	Task     string
	Program  string
	Instance int
	Copy     int
	Files    []string
}

// doneMsg reports instance completion.
type doneMsg struct {
	App      string
	Task     string
	Instance int
	Copy     int
	Machine  string
	Err      string
}

// killMsg terminates an application's instances. Task empty means every task
// of the app; Instance < 0 means every instance of the task. A daemon
// receiving a kill from outside the group relays it as a group cast so that
// "all machines working on the application" learn of the termination (§5).
type killMsg struct {
	App      string
	Task     string
	Instance int
}

// availReqMsg queries group availability (script AVAIL()).
type availReqMsg struct {
	ReqID uint64
}

// availRepMsg answers an availability query.
type availRepMsg struct {
	ReqID uint64
	Count int
}

func encode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("exm: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decode(data []byte, v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("exm: decode: %w", err)
	}
	return nil
}
