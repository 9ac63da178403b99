// http-devops runs a DevOps program against a learned emulator over
// HTTP — the LocalStack usage pattern: the emulator listens on a local
// port and the program talks to it exactly as it would talk to the
// cloud endpoint.
//
//	go run ./examples/http-devops
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"lce"
)

func main() {
	// A learned backend synthesized from the DynamoDB documentation
	// with the zero-noise extraction.
	emu, err := lce.NewServer(lce.ServerConfig{Service: "dynamodb", Backend: "learned"})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: emu.Handler}
	go srv.Serve(ln)
	defer srv.Close()
	endpoint := "http://" + ln.Addr().String()
	fmt.Printf("learned dynamodb emulator listening at %s\n", endpoint)

	// The DevOps program only sees the endpoint.
	db := lce.Connect(endpoint)
	must := func(res lce.Result, err error) lce.Result {
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	must(db.Invoke(lce.Request{Action: "CreateTable", Params: lce.Params{
		"tableName": lce.Str("users"), "keyAttribute": lce.Str("pk")}}))
	must(db.Invoke(lce.Request{Action: "PutItem", Params: lce.Params{
		"tableName": lce.Str("users"), "key": lce.Str("u1")}}))
	scan := must(db.Invoke(lce.Request{Action: "Scan", Params: lce.Params{"tableName": lce.Str("users")}}))
	fmt.Printf("scan over the wire: count=%d\n", scan.Get("count").AsInt())

	// Error codes cross the wire intact.
	_, err = db.Invoke(lce.Request{Action: "CreateTable", Params: lce.Params{
		"tableName": lce.Str("users"), "keyAttribute": lce.Str("pk")}})
	fmt.Printf("duplicate CreateTable: %v\n", err)
}
