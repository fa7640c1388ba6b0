package isis

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"vce/internal/transport"
)

// Wire message kinds carried in transport.Message.Kind.
const (
	kindJoinReq   = "isis.join"     // newcomer -> any member
	kindJoinFwd   = "isis.join_fwd" // member -> leader
	kindView      = "isis.view"     // leader -> members: a View
	kindHeartbeat = "isis.hb"       // member <-> leader liveness
	kindCast      = "isis.cast"     // group broadcast data
	kindReply     = "isis.reply"    // cast reply, point-to-point
	kindLeave     = "isis.leave"    // member -> leader, graceful exit (no body)
)

// Any other kind is an application point-to-point message (Process.Send),
// delivered to the handler registered for it.

// joinReq asks to join the group via a contact member. It names the joiner's
// address because a non-leader forwards it to the leader.
type joinReq struct {
	Name string
	Addr transport.Addr
}

// hbMsg is a liveness beacon.
type hbMsg struct {
	ViewNumber int
	FromLeader bool
}

// castMsg is a group broadcast, possibly expecting replies. Its sender is
// the envelope's From, which is also where replies go.
type castMsg struct {
	// ID numbers the sender's casts from 1: it orders FIFO delivery and
	// keys the sender's reply collection.
	ID        uint64
	Kind      string
	WantReply bool
	Payload   []byte
}

// replyMsg answers a cast; the replier is the envelope's From.
type replyMsg struct {
	CastID  uint64
	Payload []byte
}

func encode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("isis: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decode(data []byte, v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("isis: decode: %w", err)
	}
	return nil
}
