package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// failingListener fails its first Accept with a non-temporary error.
type failingListener struct{ net.Listener }

var errAccept = errors.New("accept failed")

func (failingListener) Accept() (net.Conn, error) { return nil, errAccept }

// TestServeLoopError: an error that ends the serve loop closes Done and
// surfaces through Err and Close.
func TestServeLoopError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(failingListener{ln}, http.NotFoundHandler(), time.Second)
	defer ln.Close()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after the serve loop failed")
	}
	if !errors.Is(s.Err(), errAccept) {
		t.Errorf("Err = %v, want the accept error", s.Err())
	}
	if err := s.Close(context.Background()); !errors.Is(err, errAccept) {
		t.Errorf("Close = %v, want the accept error", err)
	}
}
