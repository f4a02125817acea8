package security

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// ErrTruncated reports a buffer too short to decode.
var ErrTruncated = errors.New("security: truncated encoding")

// maxBlobLen bounds variable-length fields to keep decoding of corrupt
// frames cheap.
const maxBlobLen = 1024

// AppendCertificate appends the wire encoding of c to dst.
func AppendCertificate(dst []byte, c Certificate) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.Station))
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.NotAfter))
	dst = appendBlob(dst, c.PublicKey)
	dst = appendBlob(dst, c.issuerSig)
	return dst
}

// DecodeCertificate decodes a certificate from b, returning the
// certificate and the number of bytes consumed. The certificate's byte
// fields are capacity-limited subslices of b, not copies: they alias b
// for as long as the certificate lives, and appending to them cannot
// write into b. Callers decoding from a reused buffer copy b first.
func DecodeCertificate(b []byte) (Certificate, int, error) {
	var c Certificate
	if len(b) < 16 {
		return c, 0, ErrTruncated
	}
	c.Station = StationID(binary.BigEndian.Uint64(b))
	c.NotAfter = time.Duration(binary.BigEndian.Uint64(b[8:]))
	n := 16
	pk, used, err := decodeBlob(b[n:])
	if err != nil {
		return c, 0, fmt.Errorf("security: certificate public key: %w", err)
	}
	c.PublicKey = pk
	n += used
	sig, used, err := decodeBlob(b[n:])
	if err != nil {
		return c, 0, fmt.Errorf("security: certificate issuer signature: %w", err)
	}
	c.issuerSig = sig
	n += used
	return c, n, nil
}

// AppendEnvelope appends the wire encoding of the authentication envelope
// (certificate + signature) to dst. The protected bytes themselves are
// carried in the packet body, not duplicated here.
func AppendEnvelope(dst []byte, cert Certificate, signature []byte) []byte {
	dst = AppendCertificate(dst, cert)
	dst = appendBlob(dst, signature)
	return dst
}

// DecodeEnvelope decodes a certificate and signature from b, returning
// both and the number of bytes consumed. Like DecodeCertificate it
// returns capacity-limited subslices of b rather than copies.
func DecodeEnvelope(b []byte) (Certificate, []byte, int, error) {
	cert, n, err := DecodeCertificate(b)
	if err != nil {
		return Certificate{}, nil, 0, err
	}
	sig, used, err := decodeBlob(b[n:])
	if err != nil {
		return Certificate{}, nil, 0, fmt.Errorf("security: envelope signature: %w", err)
	}
	return cert, sig, n + used, nil
}

// AppendSignedEnvelope signs protected with signer and appends the
// envelope (signer's certificate + signature) to dst, writing the
// signature straight into dst instead of through an intermediate slice.
// protected may alias dst — typically the protected region the caller
// just encoded into the same buffer. It returns the extended slice and
// the signature, a capacity-limited subslice of it.
func AppendSignedEnvelope(dst []byte, signer Signer, protected []byte) (out, sig []byte) {
	dst = AppendCertificate(dst, signer.Certificate())
	at := len(dst)
	dst = signer.AppendSign(append(dst, 0, 0), protected)
	n := len(dst) - at - 2
	if n > maxBlobLen {
		panic(fmt.Sprintf("security: blob of %d bytes exceeds maximum %d", n, maxBlobLen))
	}
	binary.BigEndian.PutUint16(dst[at:], uint16(n))
	return dst, dst[at+2 : len(dst) : len(dst)]
}

func appendBlob(dst, blob []byte) []byte {
	if len(blob) > maxBlobLen {
		panic(fmt.Sprintf("security: blob of %d bytes exceeds maximum %d", len(blob), maxBlobLen))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(blob)))
	return append(dst, blob...)
}

func decodeBlob(b []byte) (blob []byte, consumed int, err error) {
	if len(b) < 2 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > maxBlobLen {
		return nil, 0, fmt.Errorf("security: blob length %d exceeds maximum %d", n, maxBlobLen)
	}
	if len(b) < 2+n {
		return nil, 0, ErrTruncated
	}
	return b[2 : 2+n : 2+n], 2 + n, nil
}
