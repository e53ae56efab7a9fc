package ebpf

// XDPAction is the verdict returned by an XDP program.
type XDPAction uint32

// XDP verdicts, matching the Linux UAPI.
const (
	XDPAborted  XDPAction = 0
	XDPDrop     XDPAction = 1
	XDPPass     XDPAction = 2
	XDPTx       XDPAction = 3
	XDPRedirect XDPAction = 4
)

func (a XDPAction) String() string {
	switch a {
	case XDPAborted:
		return "XDP_ABORTED"
	case XDPDrop:
		return "XDP_DROP"
	case XDPPass:
		return "XDP_PASS"
	case XDPTx:
		return "XDP_TX"
	case XDPRedirect:
		return "XDP_REDIRECT"
	}
	return "XDP_?"
}

// Offsets of the fields of struct xdp_md, the context passed to an XDP
// program in R1. All fields are 32-bit.
const (
	XDPMDData           = 0
	XDPMDDataEnd        = 4
	XDPMDDataMeta       = 8
	XDPMDIngressIfindex = 12
	XDPMDRxQueueIndex   = 16
	XDPMDEgressIfindex  = 20
	XDPMDSize           = 24
)

// Well-known EtherType values used across the example programs.
const (
	EthPIP   = 0x0800
	EthPARP  = 0x0806
	EthPIPV6 = 0x86DD
	EthPVLAN = 0x8100
)

// IP protocol numbers used across the example programs.
const (
	IPProtoTCP  = 6
	IPProtoUDP  = 17
	IPProtoIPIP = 4
)
