package proxy

import "vce/internal/channel"

// chanAdapter bridges a channel.Port to the proxy Port interface.
type chanAdapter struct{ p *channel.Port }

// AdaptPort wraps a VCE channel port for use by proxies. Proxies generated
// by the compilation manager "use VCE channels to exchange information with
// proxies running on other machines" (§4.2).
func AdaptPort(p *channel.Port) Port { return chanAdapter{p} }

func (a chanAdapter) SendTo(dst PortID, payload []byte) error {
	return a.p.SendTo(channel.PortID(dst), payload)
}

func (a chanAdapter) Recv() (ChannelMessage, bool) {
	m, ok := a.p.Recv()
	return ChannelMessage{From: PortID(m.From), Payload: m.Payload}, ok
}
