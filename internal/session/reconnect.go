package session

import (
	"context"
	"net"
	"time"
)

// Run keeps a client connected until ctx ends, then returns ctx.Err(). It
// dials and serves one connection after another, logs how each attempt
// ended ("<name> dial: …" or "<name> session ended: …") and waits
// backoff.Next() before the next one. serve owns the connection it is given
// and closes it; a session it reports healthy first rewinds the ladder.
func Run(ctx context.Context, name string, dial func(context.Context) (net.Conn, error),
	backoff *Backoff, serve func(context.Context, net.Conn) (healthy bool, err error),
	logf func(format string, args ...any)) error {
	for ctx.Err() == nil {
		conn, err := dial(ctx)
		if err != nil {
			logf("%s dial: %v", name, err)
		} else {
			healthy, err := serve(ctx, conn)
			if healthy {
				backoff.Reset()
			}
			logf("%s session ended: %v", name, err)
		}
		select {
		case <-time.After(backoff.Next()):
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}
