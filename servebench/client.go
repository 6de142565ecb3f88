package main

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/wire"
)

// wireSender sends each batch as one wire frame over its own connection
// and waits for the frame's ACK, as a gesture front end does. Its buffers
// are reused across frames.
type wireSender struct {
	c     net.Conn
	br    *bufio.Reader
	enc   *wire.Encoder
	tr    *tracer
	frame []byte
	nacks []wire.Nack

	// recorded holds the connection's first frames, from its first byte,
	// for the traced run's decode replay; recordMax is 0 when untraced.
	recorded  [][]byte
	recordMax int

	// Traced run, untraced window: per-frame send-to-ACK times and volume.
	ack                  []int64
	frames, events, size int64
	// Traced-window tallies: time in the encoder, frames and events.
	encNS, tracedFrames, tracedEvents int64
}

func dialSender(addr string, tr *tracer, recordMax int) (*wireSender, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	return &wireSender{
		c: c, br: bufio.NewReaderSize(c, 4<<10), enc: wire.NewEncoder(), tr: tr,
		frame: make([]byte, 0, 64<<10), nacks: make([]wire.Nack, 0, frameEvents), recordMax: recordMax,
	}, nil
}

// send encodes the loop's batch into one frame, writes it and reads the
// ACK. A NACKed event or a fatal response fails the run.
func (w *wireSender) send(l *loop, traced bool) (sentAt, timed int64, err error) {
	var e0 int64
	if traced {
		e0 = mono()
	}
	w.frame, err = w.enc.AppendFrame(w.frame[:0], l.batch)
	if err != nil {
		return 0, 0, fmt.Errorf("encode frame: %w", err)
	}
	t0 := mono()
	if _, err := w.c.Write(w.frame); err != nil {
		return 0, 0, fmt.Errorf("write frame: %w", err)
	}
	resp, err := wire.ReadResponse(w.br, w.nacks[:0])
	t1 := mono()
	if err != nil {
		return 0, 0, fmt.Errorf("read response: %w", err)
	}
	if resp.Fatal {
		return 0, 0, fmt.Errorf("fatal response %s", resp.Code)
	}
	if len(resp.Nacks) > 0 {
		n := resp.Nacks[0]
		return 0, 0, fmt.Errorf("%d events NACKed, first: event %d %s", len(resp.Nacks), n.Index, n.Code)
	}
	if len(w.recorded) < w.recordMax {
		w.recorded = append(w.recorded, append([]byte(nil), w.frame...))
	}
	n := int64(len(l.batch))
	if w.tr != nil && l.tl.inA(t0) {
		w.ack = append(w.ack, t1-t0)
		w.frames++
		w.events += n
		w.size += int64(len(w.frame))
	}
	if traced {
		w.encNS += t0 - e0
		w.tracedFrames++
		w.tracedEvents += n
		w.tr.frameSpans(w.tracedFrames, e0, t0, t1, n)
		return t0, t1 - e0, nil
	}
	return t0, 0, nil
}
