#include "obs/json.hpp"

#include <cstdio>
#include <limits>

namespace nautilus::obs {

void append_json_string(std::string& out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
                out += buf;
            }
            else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string JsonError::describe() const
{
    return reason + " at byte " + std::to_string(offset);
}

const JsonValue* FlatObject::find(std::string_view key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

namespace {

// Recursive descent over one flat object.  Each read_* method advances past
// what it read, or records the reason for the first error (at pos_) and
// returns false.
class Reader {
public:
    explicit Reader(std::string_view in) : in_(in) {}

    FlatObject object()
    {
        FlatObject out;
        if (!read_object(out)) {
            out.fields.clear();
            out.error = JsonError{std::move(reason_), pos_};
        }
        return out;
    }

private:
    std::string_view in_;
    std::size_t pos_ = 0;
    std::string reason_;

    bool fail(std::string reason)
    {
        reason_ = std::move(reason);
        return false;
    }
    bool at(char c) const { return pos_ < in_.size() && in_[pos_] == c; }
    bool consume(char c)
    {
        if (!at(c)) return false;
        ++pos_;
        return true;
    }
    void skip_ws()
    {
        while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
    }
    bool digits()
    {
        const std::size_t start = pos_;
        while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') ++pos_;
        return pos_ > start;
    }
    bool literal(std::string_view word)
    {
        if (in_.substr(pos_, word.size()) != word) return fail("expected a value");
        pos_ += word.size();
        return true;
    }

    bool read_object(FlatObject& out)
    {
        skip_ws();
        if (!consume('{')) return fail("expected '{'");
        skip_ws();
        if (!consume('}')) {
            do {
                skip_ws();
                const std::size_t key_at = pos_;
                std::string key;
                JsonValue value;
                if (!read_string(key)) return false;
                skip_ws();
                if (!consume(':')) return fail("expected ':' after a key");
                skip_ws();
                if (!read_value(value)) return false;
                if (out.find(key) != nullptr) {
                    pos_ = key_at;
                    return fail("duplicate key \"" + key + "\"");
                }
                out.fields.emplace_back(std::move(key), std::move(value));
                skip_ws();
            } while (consume(','));
            if (!consume('}')) return fail("expected ',' or '}'");
        }
        skip_ws();
        return pos_ == in_.size() || fail("trailing content after the object");
    }

    bool read_string(std::string& out)
    {
        static constexpr std::string_view k_escape = "\"\\/bfnrt";
        static constexpr std::string_view k_byte = "\"\\/\b\f\n\r\t";
        if (!consume('"')) return fail("expected a string");
        while (!consume('"')) {
            if (pos_ >= in_.size()) return fail("unterminated string");
            const char c = in_[pos_];
            if (static_cast<unsigned char>(c) < 0x20) return fail("raw control byte in a string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            const char esc = pos_ + 1 < in_.size() ? in_[pos_ + 1] : '\0';
            if (esc == 'u') {
                if (in_.size() - pos_ < 6) return fail("bad \\u escape");
                const char* hex = in_.data() + pos_ + 2;
                unsigned code = 0;
                if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
                    return fail("bad \\u escape");
                if (code >= 0x80) return fail("\\u escape beyond ASCII");
                out += static_cast<char>(code);
                pos_ += 6;
                continue;
            }
            const std::size_t i = k_escape.find(esc);
            if (i == std::string_view::npos) return fail("unsupported escape");
            out += k_byte[i];
            pos_ += 2;
        }
        return true;
    }

    // One RFC 8259 number token.
    bool read_number(std::string_view& token)
    {
        const std::size_t start = pos_;
        consume('-');
        if (!consume('0') && !digits())
            return fail(pos_ == start ? "expected a value" : "expected a digit");
        if (consume('.') && !digits()) return fail("expected a digit");
        if (consume('e') || consume('E')) {
            if (!consume('+')) consume('-');
            if (!digits()) return fail("expected a digit");
        }
        token = in_.substr(start, pos_ - start);
        return true;
    }

    bool read_array(std::vector<double>& out)
    {
        consume('[');
        skip_ws();
        if (consume(']')) return true;
        do {
            skip_ws();
            double d = std::numeric_limits<double>::quiet_NaN();  // null
            if (at('n')) {
                if (!literal("null")) return false;
            }
            else {
                const std::size_t element_at = pos_;
                std::string_view token;
                if (!read_number(token)) return false;
                if (!from_json_number(token, d)) {
                    pos_ = element_at;
                    return fail("number out of range");
                }
            }
            out.push_back(d);
            skip_ws();
        } while (consume(','));
        return consume(']') || fail("expected ',' or ']'");
    }

    bool read_value(JsonValue& out)
    {
        using Kind = JsonValue::Kind;
        out.offset = pos_;
        switch (pos_ < in_.size() ? in_[pos_] : '\0') {
        case '"': out.kind = Kind::string; return read_string(out.text);
        case 't': out.kind = Kind::boolean; out.truth = true; return literal("true");
        case 'f': out.kind = Kind::boolean; return literal("false");
        case 'n': out.kind = Kind::null; return literal("null");
        case '[': out.kind = Kind::array; return read_array(out.numbers);
        default: {
            out.kind = Kind::number;
            std::string_view token;
            if (!read_number(token)) return false;
            out.text = token;
            return true;
        }
        }
    }
};

}  // namespace

FlatObject parse_flat_object(std::string_view text)
{
    return Reader{text}.object();
}

}  // namespace nautilus::obs
