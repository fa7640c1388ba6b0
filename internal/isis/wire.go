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
	kindLeave     = "isis.leave"    // member -> leader, graceful exit
	kindPoint     = "isis.p2p"      // application point-to-point
)

// joinReq asks to join the group via a contact member.
type joinReq struct {
	Name string
	Addr transport.Addr
}

// hbMsg is a liveness beacon.
type hbMsg struct {
	ViewNumber int
	FromLeader bool
}

// castMsg is a group broadcast, possibly expecting replies.
type castMsg struct {
	// ID numbers the sender's casts from 1: it orders FIFO delivery and
	// keys the sender's reply collection.
	ID        uint64
	Kind      string
	Sender    MemberID
	ReplyTo   transport.Addr
	WantReply bool
	Payload   []byte
}

// replyMsg answers a cast.
type replyMsg struct {
	CastID  uint64
	From    MemberID
	Payload []byte
}

// leaveMsg announces a graceful departure.
type leaveMsg struct {
	Member MemberID
}

// pointMsg is an application-level point-to-point message.
type pointMsg struct {
	Kind    string
	From    MemberID
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
